import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issuetriage.agreement import (
    RatingMatrix,
    RatingMatrixError,
    compute_agreement,
    compute_agreement_by_group,
    fleiss_kappa,
    item_agreement,
    landis_koch_band,
    load_rating_matrix,
    majority_labels,
    outlier_raters,
)

H, L = "High", "Low"


def matrix(*rows, raters=None):
    raters = raters or tuple(f"r{i}" for i in range(len(rows[0])))
    return RatingMatrix(rows=tuple(tuple(r) for r in rows), raters=tuple(raters))


# the two statistics as the report gives them
def percent_agreement(m, mode="pairwise"):
    return compute_agreement(m, mode)["percent_agreement"]


def randolph_kappa(m):
    return compute_agreement(m)["randolph_kappa"]


class TestPercentAgreement:
    def test_perfect_agreement(self):
        m = matrix((H, H, H), (L, L, L), (H, H, H))
        assert percent_agreement(m) == 1.0

    def test_four_one_split(self):
        m = matrix((H, H, H, H, L))
        assert percent_agreement(m) == pytest.approx(0.6)  # 6 / 10 pairs

    def test_always_opposite(self):
        m = matrix((H, L), (L, H), (H, L))
        assert percent_agreement(m) == 0.0

    def test_majority_mode(self):
        m = matrix((H, H, H, H, L))
        assert percent_agreement(m, mode="majority") == pytest.approx(0.8)

    def test_missing_cells_use_present_pairs(self):
        m = matrix((H, H, None, L))
        # ratings (H, H, L): 1 agreeing pair of 3
        assert percent_agreement(m) == pytest.approx(1 / 3)


class TestRandolphKappa:
    def test_paper_pair(self):
        # 1000 two-rater items, 853 agree: P_o = 0.853 exactly
        rows = [(H, H)] * 853 + [(H, L)] * 147
        m = matrix(*rows)
        assert percent_agreement(m) == pytest.approx(0.853)
        assert randolph_kappa(m) == pytest.approx(0.706, abs=0.005)

    def test_perfect(self):
        assert randolph_kappa(matrix((H, H), (L, L))) == 1.0

    def test_chance_level_for_two_categories(self):
        m = matrix((H, H), (H, L), (L, L), (L, H))
        assert percent_agreement(m) == pytest.approx(0.5)
        assert randolph_kappa(m) == pytest.approx(0.0)

    def test_affine_in_percent_agreement(self):
        # kappa is linear in P_o with slope 1 / (1 - 1/k)
        rows_a = [(H, H)] * 6 + [(H, L)] * 4
        rows_b = [(H, H)] * 8 + [(H, L)] * 2
        ka = randolph_kappa(matrix(*rows_a))
        kb = randolph_kappa(matrix(*rows_b))
        pa = percent_agreement(matrix(*rows_a))
        pb = percent_agreement(matrix(*rows_b))
        assert (kb - ka) == pytest.approx((pb - pa) / 0.5)


class TestFleissKappa:
    def test_all_identical(self):
        m = matrix((H, H, H), (H, H, H), (L, L, L))
        assert fleiss_kappa(m)[0] == pytest.approx(1.0)

    def test_degenerate_marginals_flagged(self):
        m = matrix((H, H), (H, H))
        kappa, flags = fleiss_kappa(m)
        assert kappa == 1.0
        assert any("degenerate" in f for f in flags)

    def test_three_rater_fixture_brute_force(self):
        m = matrix((H, H, H), (H, H, L), (L, L, H), (L, L, L))
        # independent arithmetic per the fixed-marginal formula
        counts = [(3, 0), (2, 1), (1, 2), (0, 3)]
        n = 3
        p_bar = sum((a * a + b * b - n) / (n * (n - 1)) for a, b in counts) / 4
        high = sum(a for a, _ in counts) / 12
        p_e = high ** 2 + (1 - high) ** 2
        want = (p_bar - p_e) / (1 - p_e)
        assert fleiss_kappa(m)[0] == pytest.approx(want)
        assert want == pytest.approx(1 / 3)

    def test_items_with_missing_excluded(self):
        m = matrix((H, H, H), (H, None, L), (L, L, L))
        assert fleiss_kappa(m)[1] == ["excluded 1 items with missing ratings"]


class TestOutlierRaters:
    def test_agreeing_rater_not_flagged(self):
        m = matrix((H, H, H), (L, L, L), (H, H, H))
        assert outlier_raters(m) == set()

    def test_contrarian_flagged(self):
        rows = [(H, H, H, H, L)] * 6
        m = matrix(*rows, raters=("a", "b", "c", "d", "weird"))
        assert outlier_raters(m) == {"weird"}

    def test_thirty_percent_not_flagged(self):
        rows = [(H, H, H, L)] * 3 + [(H, H, H, H)] * 7
        m = matrix(*rows, raters=("a", "b", "c", "d"))
        assert "d" not in outlier_raters(m)

    def test_majority_tie_counts_as_agreement(self):
        # rater c always sees the other two split 1-1: were ties counted as
        # disagreement, c would be flagged at 100%
        m = matrix((H, L, H), (H, L, L), raters=("a", "b", "c"))
        assert outlier_raters(m) == set()


class TestMajorityLabels:
    def test_simple_majority(self):
        labels, ties = majority_labels(matrix((H, H, L)))
        assert labels == [H]
        assert ties == []

    def test_tie_flagged_unresolved(self):
        labels, ties = majority_labels(matrix((H, L)))
        assert labels == [None]
        assert ties == [0]

    def test_fixture_rows(self):
        m = matrix((H, H, L), (L, L, H), (H, L, None), (L, L, L))
        labels, ties = majority_labels(m)
        assert labels == [H, L, None, L]
        assert ties == [2]


class TestBands:
    @pytest.mark.parametrize("kappa,band", [
        (0.81, "almost perfect"), (1.0, "almost perfect"),
        (0.61, "substantial"), (0.80, "substantial"), (0.706, "substantial"),
        (0.41, "moderate"), (0.60, "moderate"),
        (0.21, "fair"), (0.405, "fair"),
        (0.01, "slight"), (0.205, "slight"),
        (0.0, "poor"), (-0.5, "poor"),
    ])
    def test_boundaries(self, kappa, band):
        assert landis_koch_band(kappa) == band


class TestInvariances:
    def test_column_permutation(self):
        rng = random.Random(3)
        rows = [tuple(rng.choice((H, L)) for _ in range(4)) for _ in range(12)]
        m = matrix(*rows)
        for perm in itertools.islice(itertools.permutations(range(4)), 6):
            permuted = matrix(*[tuple(row[p] for p in perm) for row in rows])
            assert percent_agreement(permuted) == pytest.approx(percent_agreement(m))
            assert randolph_kappa(permuted) == pytest.approx(randolph_kappa(m))

    def test_category_relabeling(self):
        rows = [(H, H, L), (L, L, L), (H, L, H)]
        swapped = [tuple(L if c == H else H for c in row) for row in rows]
        assert percent_agreement(matrix(*rows)) == pytest.approx(
            percent_agreement(matrix(*swapped)))


class TestMatrixValidation:
    def test_single_rating_row_rejected(self):
        with pytest.raises(RatingMatrixError, match="fewer than two"):
            matrix((H, None))

    def test_unknown_category_rejected(self):
        with pytest.raises(RatingMatrixError, match="unknown category"):
            matrix(("High", "Medium"))

    def test_width_mismatch_rejected(self):
        with pytest.raises(RatingMatrixError):
            RatingMatrix(rows=((H, L), (H,)), raters=("a", "b"))


class TestRatingsFile:
    def test_csv_with_groups(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(
            "project,alice,bob,carol\n"
            "web,H,H,L\n"
            "web,1,1,1\n"
            "api,L,L,\n"
            "api,0,0,1\n")
        m = load_rating_matrix(path)
        assert m.raters == ("alice", "bob", "carol")
        assert m.rows[0] == (H, H, L)
        assert m.rows[1] == (H, H, H)
        assert m.rows[2] == (L, L, None)
        reports = compute_agreement_by_group(m)
        assert set(reports) == {"overall", "web", "api"}
        assert reports["web"]["percent_agreement"] == pytest.approx((1 / 3 + 1.0) / 2)

    def test_tab_delimited_with_ids(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        path.write_text("issue\tr1\tr2\nI-1\tH\tH\nI-2\tL\tH\n")
        m = load_rating_matrix(path)
        assert m.item_ids == ("I-1", "I-2")
        assert percent_agreement(m) == pytest.approx(0.5)

    def test_report_shape(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,c\nH,H,H\nH,H,L\nL,L,L\n")
        report = compute_agreement(load_rating_matrix(path))
        assert report["band"] == landis_koch_band(report["randolph_kappa"])
        assert len(report["per_item_agreement"]) == 3
        assert report["fleiss_kappa"] is not None
        assert list(report) == ["percent_agreement", "randolph_kappa", "fleiss_kappa", "band",
                                "per_item_agreement", "majority_labels", "tied_items",
                                "outlier_raters", "flags"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(RatingMatrixError):
            load_rating_matrix(path)

    def test_header_without_rows_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("r1,r2\n")
        with pytest.raises(RatingMatrixError, match="no items"):
            load_rating_matrix(path)

    def test_group_named_overall_rejected(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("project,r1,r2\noverall,H,H\noverall,L,L\nweb,H,L\nweb,L,H\n")
        with pytest.raises(RatingMatrixError, match='group "overall"'):
            compute_agreement_by_group(load_rating_matrix(path))


def fleiss_oracle(m):
    """Fleiss' kappa and the report's flags, by the formulas the report used
    before each item was scored once: items with a missing rating are
    excluded, and degenerate marginals give 1 or 0."""
    full_rows = [row for row in m.rows if all(c is not None for c in row)]
    excluded = len(m.rows) - len(full_rows)
    if not full_rows:
        return None, ["fleiss kappa unavailable: no items with a full set of ratings"]
    flags = [f"excluded {excluded} items with missing ratings"] if excluded else []
    n, big_n = len(m.raters), len(full_rows)
    count_rows = [m.counts(row) for row in full_rows]
    p_bar = sum((sum(c * c for c in counts) - n) / (n * (n - 1))
                for counts in count_rows) / big_n
    marginals = [sum(counts[j] for counts in count_rows) / (big_n * n) for j in range(m.k)]
    p_e = sum(p * p for p in marginals)
    if math.isclose(p_e, 1.0):
        flags.append("degenerate marginals (one category holds all ratings)")
        return (1.0 if math.isclose(p_bar, 1.0) else 0.0), flags
    return (p_bar - p_e) / (1.0 - p_e), flags


@st.composite
def rating_matrices(draw):
    """Three to six raters over two or three categories; a cell may be
    missing, as long as each item keeps two ratings."""
    categories = ("High", "Low", "Medium")[:draw(st.integers(2, 3))]
    n_raters = draw(st.integers(3, 6))
    row = st.lists(st.sampled_from((*categories, None)), min_size=n_raters,
                   max_size=n_raters).filter(lambda r: sum(c is not None for c in r) >= 2)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    return RatingMatrix(tuple(map(tuple, rows)), tuple(f"r{i}" for i in range(n_raters)),
                        categories)


@settings(max_examples=200, deadline=None)
@given(m=rating_matrices(), mode=st.sampled_from(["pairwise", "majority"]))
def test_report_is_derived_from_each_item_scored_once(m, mode):
    report = compute_agreement(m, mode)
    per_item = report["per_item_agreement"]
    assert per_item == [item_agreement(m, row, mode) for row in m.rows]
    p_o = report["percent_agreement"]
    assert p_o == sum(per_item) / len(m.rows)  # bit for bit
    assert report["randolph_kappa"] == (p_o - 1 / m.k) / (1 - 1 / m.k)
    assert (report["fleiss_kappa"], report["flags"]) == fleiss_oracle(m)
