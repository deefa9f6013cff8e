"""Helpers that test modules import: the fixture directory, a fixed
timestamp, an issue builder and the forked-worker probes. They live here, not
in ``conftest.py``, because ``perfbench/`` has a ``conftest.py`` of its own,
and a test module that imports from ``conftest`` gets whichever one pytest
loaded first when it collects both directories in one run."""

from __future__ import annotations

import os
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

from issuetriage import learn
from issuetriage.corpus import CommentRecord, EventRecord, IssueRecord, UserProfile

FIXTURES = Path(__file__).parent / "fixtures"

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)


def make_issue(id="1", repo="acme/engine", title="Parser fails on nested input",
               description="The parser raises an error for valid nested input.",
               labels=(), n_comments=0, n_events=0, followers=0,
               created_at=T0, closed_days=10, closer=None, login="alice",
               **kwargs) -> IssueRecord:
    kwargs.setdefault("comments", tuple(
        CommentRecord(author_login=f"user{i % 3}", body="same issue here",
                      created_at=created_at + timedelta(hours=i + 1))
        for i in range(n_comments)))
    kwargs.setdefault("events", tuple(
        EventRecord(kind="labeled", created_at=created_at + timedelta(hours=i + 1))
        for i in range(n_events)))
    kwargs.setdefault("author", UserProfile(
        login=login, followers=followers,
        account_created_at=created_at - timedelta(days=400)))
    return IssueRecord(
        id=id, repo=repo, title=title, description=description,
        created_at=created_at,
        closed_at=created_at + timedelta(days=closed_days) if closed_days else None,
        labels=tuple(labels), closer_login=closer, **kwargs)


def wait_for(path, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.005)


def in_child(fault, started):
    """``learn._grow_tree`` that, in a forked worker, creates the file
    ``started`` and runs ``fault()`` before each node, and in the process
    that made it waits for ``started`` first: a worker has taken a tree
    before the caller grows one."""
    parent, grow = os.getpid(), learn._grow_tree

    def grow_tree(*args, **kwargs):
        if os.getpid() != parent:
            started.touch()
            fault()
        else:
            wait_for(started)
        return grow(*args, **kwargs)
    return grow_tree
