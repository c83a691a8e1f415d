"""Coincidence scans, the rigidity checker, and the reversal pattern."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import irrmeasure.screening
from irrmeasure import (CoincidenceLog, CombinationKind, ContinuedFraction,
                        ErrorTerm, Ordering, QuadraticSurd,
                        RigidityOutcome, Verdict, check_reversal_pattern,
                        check_rigidity, compare_errors, convergents,
                        rigidity_scan, scan_coincidences, sqrt_of, surd_to_cf)
from irrmeasure.cf import integer_combination_check
from irrmeasure.corpus import (random_independent_members, random_periodic_cf,
                               random_shared_prefix_pair, random_surd)
from irrmeasure.errors import (DepthCapExceeded, DepthExhausted, LabError,
                               UndecidedComparison)
from irrmeasure.screening import RIGIDITY_GATES
from irrmeasure.specfile import parse_spec

DATA = Path(__file__).parent / "data"


# ------------------------------------------------------------------ scans

def test_integer_shift_is_dependent(sqrt2_cf):
    shifted = surd_to_cf(QuadraticSurd(Fraction(1), Fraction(1), 2))
    log = scan_coincidences(sqrt2_cf, shifted, depth=30)
    assert log.verdict is Verdict.DEPENDENT
    # identical tails: every index pair (nu, nu) shares (q, q')
    assert all(nu == mu for nu, mu in log.shared_pairs)
    assert len(log.shared_pairs) == 30


def test_same_stream_is_dependent(sqrt2_periodic):
    other = ContinuedFraction.periodic([1], [2])
    log = scan_coincidences(sqrt2_periodic, other, depth=20)
    assert log.verdict is Verdict.DEPENDENT


def test_phi_sqrt2_independent_likely(phi_cf, sqrt2_cf):
    log = scan_coincidences(phi_cf, sqrt2_cf, depth=40)
    assert log.verdict is Verdict.INDEPENDENT_LIKELY
    # the only early coincidences: the shared pair (1, 2) and the equal
    # star 1/2, both within the first few indices
    assert log.shared_pairs == ((1, 0),)
    assert log.equal_stars == ((2, 1),)
    assert log.time_horizon == 2


def test_equal_stars_force_matching_denominators():
    # executable form on every logged coincidence across a random corpus
    rng = random.Random(130)
    for _ in range(30):
        a, b = random_periodic_cf(rng), random_periodic_cf(rng)
        log = scan_coincidences(a, b, depth=30)
        qa = [c.q for c in convergents(a, 31)]
        rb = [c.q for c in convergents(b, 31)]
        for nu, mu in log.equal_stars:
            assert qa[nu - 1] == rb[mu - 1]
            assert qa[nu] == rb[mu]
        if log.verdict is Verdict.INDEPENDENT_LIKELY:
            locations = [max(nu + 1, mu + 1) for nu, mu in log.shared_pairs]
            locations += [max(nu, mu) for nu, mu in log.equal_stars]
            assert all(2 * loc < 30 for loc in locations)


def test_late_coincidences_force_undecided():
    # two streams sharing a long prefix keep coinciding deep into the
    # scan window; without a symbolic proof the verdict must stay open
    a = ContinuedFraction.from_rule(lambda nu: 2, depth_cap=100)
    b = ContinuedFraction.from_rule(lambda nu: 2 if nu < 35 else 3, depth_cap=100)
    log = scan_coincidences(a, b, depth=40)
    assert log.verdict is Verdict.UNDECIDED


def naive_scan_coincidences(a, b, depth=40):
    """The per-pair scan scan_coincidences replaced, kept as its reference:
    two dict joins over the raw denominator lists, the star join keyed by
    lowest-terms pairs, and the equal-star lemma asserted at each hit."""
    if depth < 2:
        raise ValueError("scan depth must be >= 2")
    qa = a.denominators(depth + 1)
    rb = b.denominators(depth + 1)

    def reduced(num, den):
        g = gcd(num, den)
        return num // g, den // g

    pair_index = {}
    for mu in range(depth):
        pair_index.setdefault((rb[mu], rb[mu + 1]), []).append(mu)
    shared_pairs = [(nu, mu) for nu in range(depth)
                    for mu in pair_index.get((qa[nu], qa[nu + 1]), ())]
    star_index = {}
    for mu in range(1, depth + 1):
        star_index.setdefault(reduced(rb[mu - 1], rb[mu]), []).append(mu)
    equal_stars = []
    for nu in range(1, depth + 1):
        for mu in star_index.get(reduced(qa[nu - 1], qa[nu]), ()):
            equal_stars.append((nu, mu))
            if qa[nu - 1] != rb[mu - 1] or qa[nu] != rb[mu]:
                raise AssertionError(
                    f"equal stars at ({nu}, {mu}) without matching denominators")
    combination = None
    va, vb = a.exact_value(), b.exact_value()
    if va is not None and vb is not None:
        combination = integer_combination_check(va, vb)
    locations = [max(nu + 1, mu + 1) for nu, mu in shared_pairs]
    locations += [max(nu, mu) for nu, mu in equal_stars]
    if combination in (CombinationKind.SUM_INTEGER, CombinationKind.DIFF_INTEGER):
        verdict = Verdict.DEPENDENT
    elif not locations or 2 * max(locations) < depth:
        verdict = Verdict.INDEPENDENT_LIKELY
    else:
        verdict = Verdict.UNDECIDED
    horizon = max([qa[nu + 1] for nu, _ in shared_pairs]
                  + [qa[nu] for nu, _ in equal_stars], default=0)
    return CoincidenceLog(depth=depth, shared_pairs=tuple(shared_pairs),
                          equal_stars=tuple(equal_stars), verdict=verdict,
                          combination=combination, time_horizon=horizon)


def _screening_pairs(kind):
    """Fresh stream pairs of one family; streams are shared between pairs
    where a family lists one stream twice."""
    rng = random.Random(f"screening-{kind}")
    if kind == "periodic":
        return [(random_periodic_cf(rng), random_periodic_cf(rng)) for _ in range(25)]
    if kind == "low_coefficient":
        # period length 1 and coefficients 1..2: denominators collide often
        return [(random_periodic_cf(rng, max_coeff=2, max_period=1),
                 random_periodic_cf(rng, max_coeff=2, max_period=1))
                for _ in range(25)]
    if kind == "shared_prefix":
        return [random_shared_prefix_pair(rng) for _ in range(8)]
    if kind == "surd":
        return [(surd_to_cf(random_surd(rng)), surd_to_cf(random_surd(rng)))
                for _ in range(10)]
    if kind == "dependent":
        return [(surd_to_cf(sqrt_of(2)),
                 surd_to_cf(QuadraticSurd(Fraction(3), Fraction(1), 2)))]
    # a_1 = 1, so q_0 = q_1 = 1: rows 0 and 1 both start with 1
    phi = ContinuedFraction.periodic([1], [1])
    ones = [phi, ContinuedFraction.periodic([0], [1, 3]),
            ContinuedFraction.periodic([2, 1, 1], [2]),
            ContinuedFraction.from_rule(lambda nu: 1 if nu < 4 else 2, depth_cap=200),
            surd_to_cf(QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5))]
    return [(x, y) for i, x in enumerate(ones) for y in ones[i + 1:]] + [
        (phi, surd_to_cf(sqrt_of(2))), (surd_to_cf(sqrt_of(3)), phi)]


@pytest.mark.parametrize("depths", [(60, 2, 40, 3, 10), (2, 10, 3, 40, 60)],
                         ids=["built_deep_first", "built_shallow_first"])
@pytest.mark.parametrize("kind", ["periodic", "low_coefficient", "shared_prefix",
                                  "surd", "dependent", "a1_is_one"])
def test_scan_coincidences_matches_the_per_pair_joins(kind, depths):
    # the same stream objects serve every depth, so each pair index is
    # read both below and above the depth it was first built for
    pairs = _screening_pairs(kind)
    stars = 0
    for depth in depths:
        for a, b in pairs:
            want = naive_scan_coincidences(a, b, depth)
            got = scan_coincidences(a, b, depth)
            assert got == want
            assert got.serialize() == want.serialize()
            stars += len(want.equal_stars)
    assert stars > 0


@pytest.mark.parametrize("finite_first", [True, False])
def test_scan_coincidences_fails_like_the_per_pair_joins(finite_first):
    # a finite stream with 6 coefficients, screened at depth 10: the same
    # error, from the same index, on the first read and on a retry
    def make():
        pair = [ContinuedFraction.from_coefficients([1, 2, 1, 3, 1, 4]),
                ContinuedFraction.periodic([1], [1])]
        return pair if finite_first else pair[::-1]

    with pytest.raises(DepthExhausted) as naive:
        naive_scan_coincidences(*make(), depth=10)
    pair = make()
    for _ in range(2):
        with pytest.raises(DepthExhausted) as got:
            scan_coincidences(*pair, depth=10)
        assert str(got.value) == str(naive.value)
    assert "index 6 requested" in str(naive.value)
    # the rows the index covered before the error still serve a short scan
    assert scan_coincidences(*pair, depth=4) == naive_scan_coincidences(*make(), depth=4)


# --------------------------------------------------------------- rigidity

def test_rigidity_not_applicable_without_denominator_match(phi_cf, sqrt2_cf):
    rec = check_rigidity(phi_cf, sqrt2_cf, 6, 6, 1)
    assert rec.outcome is RigidityOutcome.NOT_APPLICABLE
    assert rec.failed_hypothesis == "q_{nu+2} = r_{mu+d}"


def test_rigidity_confirms_on_shared_tail_structure(sqrt2_cf):
    # b = a + 3 keeps every coefficient beyond a0, hence all q and error
    # terms: the hypotheses hold with equality at (nu, nu, 2) and the
    # conclusion must follow
    b = surd_to_cf(QuadraticSurd(Fraction(3), Fraction(1), 2))
    for nu in range(6):
        rec = check_rigidity(sqrt2_cf, b, nu, nu, 2)
        assert rec.outcome is RigidityOutcome.CONFIRMED
        assert rec.detail["sign_head"] == 0
        assert rec.detail["star_a(nu+2)"] == rec.detail["star_b(mu+2)"]
    # with d != 2 the denominator-match hypothesis fails
    assert check_rigidity(sqrt2_cf, b, 3, 3, 3).outcome is RigidityOutcome.NOT_APPLICABLE


def test_rigidity_scan_zero_violations_on_random_pairs():
    rng = random.Random(917)
    for _ in range(6):
        a, b = random_independent_members(rng, 2)
        outcomes = Counter(r.outcome for r in
                           rigidity_scan(a, b, max_index=12, max_d=4))
        assert outcomes[RigidityOutcome.VIOLATION] == 0


def naive_rigidity_scan(a, b, *, max_index, max_d, max_compare_depth=64):
    """The triple loop rigidity_scan replaced, kept as its reference."""
    return [check_rigidity(a, b, nu, mu, d, max_compare_depth=max_compare_depth)
            for nu in range(max_index + 1)
            for mu in range(max_index + 1)
            for d in range(1, max_d + 1)]


def naive_kept(records):
    """What rigidity_scan keeps of the triple loop's records: the records
    past the denominator gate, in loop order, the tally of all of them,
    and their number. Every other record follows from its key."""
    counts = Counter(r.failed_hypothesis or r.outcome.value for r in records)
    return {"records": [r.serialize() for r in records
                        if r.failed_hypothesis != RIGIDITY_GATES[0]],
            "tally": {key: counts[key]
                      for key in RIGIDITY_GATES + ("CONFIRMED", "VIOLATION")},
            "checked": len(records)}


def scan_kept(scan):
    """A RigidityScan's records, tally and triple count, as naive_kept
    gives them."""
    return {"records": [r.serialize() for r in scan],
            "tally": dict(scan.tally), "checked": scan.checked}


def _pairs(kind):
    if kind == "independent":
        rng = random.Random(2417)
        return [tuple(random_independent_members(rng, 2)) for _ in range(3)]
    if kind == "shared_prefix":
        rng = random.Random(2418)
        return [random_shared_prefix_pair(rng) for _ in range(3)]
    # b = a + 3: CONFIRMED records at (nu, nu, 2)
    return [(surd_to_cf(sqrt_of(2)),
             surd_to_cf(QuadraticSurd(Fraction(3), Fraction(1), 2)))]


@pytest.mark.parametrize("max_index", [0, 12])
@pytest.mark.parametrize("max_d", [1, 2, 4])
@pytest.mark.parametrize("kind", ["independent", "shared_prefix", "dependent"])
def test_rigidity_scan_matches_the_triple_loop(kind, max_d, max_index):
    for a, b in _pairs(kind):
        naive = naive_rigidity_scan(a, b, max_index=max_index, max_d=max_d)
        scan = rigidity_scan(a, b, max_index=max_index, max_d=max_d)
        assert scan.checked == len(naive) == (max_index + 1) ** 2 * max_d
        assert scan_kept(scan) == naive_kept(naive)
        assert len(scan) == scan.checked - scan.tally[RIGIDITY_GATES[0]]
        assert sum(scan.tally.values()) == scan.checked
        assert scan.violations == tuple(
            r for r in naive if r.outcome is RigidityOutcome.VIOLATION)
    if kind == "dependent" and max_d >= 2:
        assert scan.tally["CONFIRMED"] == max_index + 1


def test_rigidity_scan_iterates_its_examined_records(phi_cf, sqrt2_cf):
    naive = naive_rigidity_scan(phi_cf, sqrt2_cf, max_index=6, max_d=3)
    examined = [r for r in naive if r.failed_hypothesis != RIGIDITY_GATES[0]]
    scan = rigidity_scan(phi_cf, sqrt2_cf, max_index=6, max_d=3)
    assert 0 < len(scan) == len(examined) < scan.checked == len(naive)
    assert list(scan) == examined
    empty = rigidity_scan(phi_cf, sqrt2_cf, max_index=-1)
    assert len(empty) == empty.checked == 0
    assert list(rigidity_scan(phi_cf, sqrt2_cf, max_d=0)) == []


def _outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except (LabError, ValueError) as exc:
        return type(exc), str(exc)


def _grow_window(a, b, *, max_index, max_d, **_):
    """Grows a to row max_index + 2, then b to row max_index + max(max_d, 2),
    the deepest rows the triple loop reads."""
    a.rows(max_index + 3)
    b.rows(max_index + max(max_d, 2) + 1)


@pytest.fixture
def sign_calls(monkeypatch):
    """The (nu, mu) keys passed to screening._error_sign, in call order."""
    calls = []
    error_sign = irrmeasure.screening._error_sign

    def counted(a, nu, b, mu, max_depth):
        calls.append((nu, mu))
        return error_sign(a, nu, b, mu, max_depth)

    monkeypatch.setattr(irrmeasure.screening, "_error_sign", counted)
    return calls


def _scan_like_the_loop(make_pair, sign_calls, **kwargs):
    """Asserts what rigidity_scan does on a fresh pair: when both tables
    fill the window, the triple loop's records or error; otherwise the
    error of growing fresh tables to it, a first, with no sign evaluated,
    where the loop fails too. Returns the loop's and the scan's outcome."""
    def loop(a, b):
        return naive_kept(naive_rigidity_scan(a, b, **kwargs))

    def scan(a, b):
        return scan_kept(rigidity_scan(a, b, **kwargs))

    expected = _outcome(loop, *make_pair())
    growth = _outcome(_grow_window, *make_pair(), **kwargs)
    sign_calls.clear()
    got = _outcome(scan, *make_pair())
    if growth is None:
        assert got == expected
    else:
        assert isinstance(expected, tuple), "the loop must fail too"
        assert got == growth and sign_calls == []
    return expected, got


@pytest.mark.parametrize("make_a, make_b, max_d", [
    # a ends before index 2: the first triple fails on a
    (lambda: ContinuedFraction.from_coefficients([1, 2]),
     lambda: ContinuedFraction.periodic([1], [2]), 4),
    # b ends inside row nu = 0, after matched triples that refine into it
    (lambda: ContinuedFraction.periodic([1], [2]),
     lambda: ContinuedFraction.from_coefficients([1, 2, 2, 2, 2, 2, 2, 2]), 4),
    # a ends at a later row
    (lambda: ContinuedFraction.from_coefficients([1, 3, 1, 4, 1, 5, 9, 2, 6]),
     lambda: ContinuedFraction.periodic([2], [1, 2]), 2),
    # the loop meets an undecided matched triple in row 0 before b's end;
    # the scan meets b's end first
    (lambda: ContinuedFraction.from_rule(lambda nu: 2, depth_cap=200),
     lambda: ContinuedFraction.from_coefficients([2] * 12), 4),
], ids=["a_short", "b_short", "a_short_late", "undecided_first"])
def test_rigidity_scan_fails_like_the_triple_loop(make_a, make_b, max_d, sign_calls):
    kwargs = dict(max_index=12, max_d=max_d, max_compare_depth=8)
    expected, got = _scan_like_the_loop(lambda: (make_a(), make_b()),
                                        sign_calls, **kwargs)
    assert isinstance(expected, tuple), "the window must be too short"
    assert got[0] is DepthExhausted


@pytest.mark.parametrize("max_d", [1, 2, 3, 4])
@pytest.mark.parametrize("max_index", [0, 3, 12])
def test_rigidity_scan_fails_at_the_computed_point(max_index, max_d, sign_calls):
    # a shared-prefix pair with a, b or both cut to every length that ends
    # inside the window or just past it. The scan fails where growing the
    # tables to the window fails, before any sign, exactly when the triple
    # loop fails; otherwise it returns the loop's records. The loop can
    # fail earlier than its last row, on a matched triple of row 0: on
    # a's end while refining, or undecided at a compare depth of 1
    top = max_index + max(max_d, 2)
    raised = Counter()
    for seed in (4101, 4102, 4103):
        for length in range(1, top + 3):
            for cuts in ((length, None), (None, length),
                         (length, length + 1), (length + 1, length)):
                def make_pair():
                    pair = random_shared_prefix_pair(random.Random(seed))
                    return [cf if cut is None else
                            ContinuedFraction.from_coefficients(cf.prefix(cut))
                            for cf, cut in zip(pair, cuts)]
                for depth in (1, 64):
                    expected, got = _scan_like_the_loop(
                        make_pair, sign_calls, max_index=max_index,
                        max_d=max_d, max_compare_depth=depth)
                    if isinstance(expected, tuple):
                        raised[expected[0], got[0]] += 1
    assert raised[DepthExhausted, DepthExhausted] > 0
    # with d >= 2, (nu, nu, 2) matches inside the shared prefix, where the
    # two error terms' enclosures still overlap at compare depth 1 even
    # when both tables fill the window
    assert raised[UndecidedComparison, UndecidedComparison] > 0 or max_d == 1


@pytest.mark.parametrize("max_d", [2, 3])
@pytest.mark.parametrize("max_index", [2, 3, 12])
def test_rigidity_scan_fails_one_row_before_b_ends(max_index, max_d, sign_calls):
    # b = [0; 1, 2, 3] is a = [0; 3, 3, 3, ...] reflected, 1 - a, cut after
    # four coefficients, so b's row 4 fails. The triple loop reaches that
    # row at (0, 2, 1) for max_d = 2 and at (0, 1, 3) for max_d = 3. Just
    # before it, (0, 1, 2) passes both denominator gates (q_2 = 10 = r_3,
    # q_1 = 3 <= r_2 = 3), and xi_0(a) = eta_1(b) on b's whole prefix, so
    # within the compare budget the loop reports that comparison as
    # undecided. The scan grows b to the window first and reports b's end.
    # (0, 1, 1) cannot play this part: with q_2 = r_2 and q_1 <= r_2 the
    # depth-0 enclosures already give xi_0 > 1/(q_1 + 1) >= 1/r_2 > eta_1.
    def make_pair():
        return (ContinuedFraction.periodic([0, 3], [3]),
                ContinuedFraction.from_coefficients([0, 1, 2, 3]))

    a, b = make_pair()
    assert (a.convergent_row(2)[1], a.convergent_row(1)[1]) == (10, 3)
    assert [b.convergent_row(j)[1] for j in range(4)] == [1, 1, 3, 10]
    row_error = (DepthExhausted,
                 "[cf.coefficient] finite backing has 4 coefficients, index 4 requested")
    loop = []
    for depth in (1, 2, 64):
        kwargs = dict(max_index=max_index, max_d=max_d, max_compare_depth=depth)
        expected, got = _scan_like_the_loop(make_pair, sign_calls, **kwargs)
        assert got == row_error
        loop.append(expected)
    # past the compare budget, b's end is the error the loop meets too
    assert loop[0][0] is UndecidedComparison and loop[-1] == row_error


def test_rigidity_scan_rejects_a_source_that_fails_only_once(sign_calls):
    # a failed growth leaves b's table as it was, so the first scan fails
    # with the source's own error before any sign, and the next scan
    # reads the source again and matches the triple loop
    failed = []

    def rule(nu):
        if nu == 5 and not failed:
            failed.append(nu)
            raise ValueError("transient")
        return 2

    a = ContinuedFraction.periodic([1], [1])
    b = ContinuedFraction.from_rule(rule, depth_cap=100)
    with pytest.raises(ValueError, match="^transient$"):
        rigidity_scan(a, b, max_index=6, max_d=2)
    assert sign_calls == [] and b.rows(0) == []
    scan = rigidity_scan(a, b, max_index=6, max_d=2)
    naive = naive_rigidity_scan(a, ContinuedFraction.from_rule(lambda nu: 2, 100),
                                max_index=6, max_d=2)
    assert scan_kept(scan) == naive_kept(naive)
    assert failed == [5]


def test_rigidity_scan_reads_rows_within_its_window(monkeypatch):
    # operation-count guard on the verify_pairs spec at the benchmark's
    # window. The scan and the checks read rows off the grown tables; the
    # first pair's 110 convergent_row calls are 2 growths (a to row 52,
    # b to the window's top) and 3 per sign key (36 keys: _tail_sign's two
    # row reads and one ErrorTerm). The later pairs find their tables
    # grown. No triple copies a denominator list
    spec = parse_spec((DATA / "verify_pairs3.spec").read_text())
    cfs = [number.to_cf() for number in spec.numbers]
    max_index, max_d = 50, 4
    calls = Counter()
    row = ContinuedFraction.convergent_row
    denominators = ContinuedFraction.denominators

    def counted_row(self, nu):
        calls["convergent_row"] += 1
        return row(self, nu)

    def counted_denominators(self, count):
        calls["denominators"] += 1
        return denominators(self, count)

    monkeypatch.setattr(ContinuedFraction, "convergent_row", counted_row)
    monkeypatch.setattr(ContinuedFraction, "denominators", counted_denominators)
    row_calls = []
    for i in range(len(cfs)):
        for j in range(i + 1, len(cfs)):
            calls.clear()
            rigidity_scan(cfs[i], cfs[j], max_index=max_index, max_d=max_d)
            assert calls["denominators"] == 0
            row_calls.append(calls["convergent_row"])
    bounds = [110, 1, 0]
    assert all(n <= bound for n, bound in zip(row_calls, bounds)), row_calls


def test_rigidity_scan_undecided_from_the_first_matched_triple():
    # q = 1, 2, 5, ... on both sides: (0, 0, 2) is the first triple with
    # q_2 = r_{mu+d}, and its head comparison xi_0 vs eta_0 is a tie
    def make():
        return ContinuedFraction.from_rule(lambda nu: 2, depth_cap=200)

    with pytest.raises(UndecidedComparison) as naive:
        naive_rigidity_scan(make(), make(), max_index=12, max_d=4,
                            max_compare_depth=8)
    with pytest.raises(UndecidedComparison) as joined:
        rigidity_scan(make(), make(), max_index=12, max_d=4,
                      max_compare_depth=8)
    assert str(joined.value) == str(naive.value)
    assert joined.value.left.index == joined.value.right.index == 0


def test_rigidity_without_backend_raises_undecided_on_equal_values():
    a = ContinuedFraction.from_rule(lambda nu: 2, depth_cap=200)
    b = ContinuedFraction.from_rule(lambda nu: 2, depth_cap=200)
    with pytest.raises(UndecidedComparison):
        check_rigidity(a, b, 2, 2, 2, max_compare_depth=8)


# ------------------------------------------------ enclosure-first signs

def exact_first_error_sign(a, nu, b, mu, max_depth):
    """_error_sign as it was before the enclosures decided first: exact
    surd comparison whenever both members carry a value, compare_errors
    otherwise. Kept as the reference."""
    ta, tb = ErrorTerm(a, nu), ErrorTerm(b, mu)
    ea, eb = ta.exact_value(), tb.exact_value()
    if ea is not None and eb is not None:
        return ea.compare(eb)
    return -1 if compare_errors(ta, tb, max_depth) is Ordering.LESS else 1


def _e_rule(nu):
    """e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]."""
    if nu == 0:
        return 2
    return 2 * (nu + 1) // 3 if nu % 3 == 2 else 1


def _sign_corpus(kind, *, capped=False):
    """(a, b, max_index) for scans with max_d = 4; capped streams stop
    just past the last coefficient a scan reads (max_index + max_d + 1),
    so a comparison that needs to refine hits the depth cap."""
    def cap(max_index):
        return max_index + 4 + 2 if capped else 512

    def resurd(cf, max_index):
        return surd_to_cf(cf.exact_value(), depth_cap=cap(max_index))

    if kind == "independent":        # criterion 6's surd pairs
        rng = random.Random(52_06)
        pairs = [random_independent_members(rng, 2) for _ in range(10)]
        return [(resurd(a, 25), resurd(b, 25), 25) for a, b in pairs]
    if kind == "shared_prefix":
        rng = random.Random(52_061)
        return [(*random_shared_prefix_pair(rng, depth_cap=cap(50)), 50)
                for _ in range(20)]
    sqrt2_plus_3 = surd_to_cf(QuadraticSurd(Fraction(3), Fraction(1), 2),
                              depth_cap=cap(12))
    if kind == "dependent":          # equal error terms at (nu, nu)
        return [(surd_to_cf(sqrt_of(2), depth_cap=cap(12)), sqrt2_plus_3, 12)]
    # rule-backed members carry no exact value: against an unrelated
    # surd, and against a surd with the same tail, whose tie stays open
    return [(ContinuedFraction.from_rule(_e_rule, depth_cap=cap(25)),
             surd_to_cf(sqrt_of(3), depth_cap=cap(25)), 25),
            (ContinuedFraction.from_rule(lambda nu: 2 if nu else 1,
                                         depth_cap=cap(12)), sqrt2_plus_3, 12)]


def _scan_outcome(a, b, max_index, **kwargs):
    try:
        scan = rigidity_scan(a, b, max_index=max_index, max_d=4, **kwargs)
    except LabError as exc:
        return type(exc), str(exc)
    return [r.serialize() for r in scan], dict(scan.tally)


@pytest.mark.parametrize("setting", ["default", "max_compare_depth_1", "depth_cap"])
@pytest.mark.parametrize("kind", ["independent", "shared_prefix", "dependent", "rule"])
def test_error_signs_match_the_exact_first_reference(kind, setting, monkeypatch):
    kwargs = {"max_compare_depth": 1} if setting == "max_compare_depth_1" else {}
    outcomes = []
    for a, b, max_index in _sign_corpus(kind, capped=setting == "depth_cap"):
        with monkeypatch.context() as patch:
            patch.setattr(irrmeasure.screening, "_error_sign",
                          exact_first_error_sign)
            expected = _scan_outcome(a, b, max_index, **kwargs)
        got = _scan_outcome(a, b, max_index, **kwargs)
        assert got == expected
        outcomes.append(got)
    if kind == "dependent":
        (_, tally), = outcomes
        assert tally["CONFIRMED"] == 13
    if kind == "rule":          # the rule-backed tie raises, as it did
        assert issubclass(outcomes[1][0], LabError)


def test_each_error_sign_is_evaluated_once_per_scan(monkeypatch):
    calls = Counter()

    def counted(a, nu, b, mu, max_depth):
        calls[nu, mu] += 1
        return error_sign(a, nu, b, mu, max_depth)

    error_sign = irrmeasure.screening._error_sign
    monkeypatch.setattr(irrmeasure.screening, "_error_sign", counted)
    corpus = _sign_corpus("dependent") + _sign_corpus("shared_prefix")[:5]
    lookups = 0
    for a, b, max_index in corpus:
        evaluated = []
        for _ in range(2):
            calls.clear()
            tally = rigidity_scan(a, b, max_index=max_index, max_d=4).tally
            assert set(calls.values()) <= {1}
            evaluated.append(set(calls))
            # each record past the second gate read a head sign, and each
            # past the third a tail sign
            head = sum(tally[key] for key in RIGIDITY_GATES[2:]
                       + ("CONFIRMED", "VIOLATION"))
            tail = head - tally[RIGIDITY_GATES[2]]
            assert len(calls) <= head + tail
            lookups += head + tail - len(calls)
        assert evaluated[0] == evaluated[1]     # the memo lives for one scan
    assert lookups > 0          # some key was asked for twice


def _exact_path_reached(*args, **kwargs):
    raise AssertionError("exact surd algebra reached")


def test_rigidity_signs_run_exact_algebra_only_on_ties(monkeypatch):
    corpora = {kind: _sign_corpus(kind) for kind in ("independent", "shared_prefix")}
    tallies = {kind: [dict(rigidity_scan(a, b, max_index=m, max_d=4).tally)
                      for a, b, m in corpus] for kind, corpus in corpora.items()}
    # records past the second gate are those that took an error sign
    signed = sum(tally[key] for runs in tallies.values() for tally in runs
                 for key in RIGIDITY_GATES[2:] + ("CONFIRMED", "VIOLATION"))
    assert signed > 0
    monkeypatch.setattr(QuadraticSurd, "compare", _exact_path_reached)
    monkeypatch.setattr(ErrorTerm, "exact_value", _exact_path_reached)
    for kind, corpus in corpora.items():
        assert [dict(rigidity_scan(a, b, max_index=m, max_d=4).tally)
                for a, b, m in corpus] == tallies[kind]
    # equal error terms never separate: the exact fallback is live
    (sqrt2, sqrt2_plus_3, top), = _sign_corpus("dependent")
    with pytest.raises(AssertionError, match="exact surd algebra reached"):
        rigidity_scan(sqrt2, sqrt2_plus_3, max_index=top, max_d=4)


# ------------------------------------------------ signs on shared rows

def enclosure_error_sign(a, nu, b, mu, max_depth):
    """_error_sign as it was before shared rows were read off the tails:
    fresh error terms and compare_errors decide, exact surds break a tie.
    Kept as the reference."""
    ta, tb = ErrorTerm(a, nu), ErrorTerm(b, mu)
    try:
        return -1 if compare_errors(ta, tb, max_depth) is Ordering.LESS else 1
    except (UndecidedComparison, DepthCapExceeded, DepthExhausted):
        ea, eb = ta.exact_value(), tb.exact_value()
        if ea is None or eb is None:
            raise
        return ea.compare(eb)


#: the refinement budget of the tail-rule tests
BUDGET = 6

#: heads a_0..a_nu and b_0..b_mu whose last convergent rows share
#: (q, q_prev): (3, 1) for the first and last pair, (1, 0) for nu = mu = 0
TAIL_HEADS = {"nu=mu=2": ((3, 1, 2), (1, 1, 2)),
              "nu=mu=0": ((1,), (4,)),
              "nu=2,mu=1": ((0, 1, 2), (5, 3))}


def _tail_stream(kind, word, reads=None, *, depth_cap=200):
    """word, then 1, 2, 1, 2, ... on the given backing; a rule-backed
    source appends every index it is asked for to reads."""
    if kind == "periodic":
        return ContinuedFraction.periodic(word, (1, 2), depth_cap)
    if kind == "coefficients":
        return ContinuedFraction.from_coefficients(word + (1, 2) * 20, depth_cap)

    def rule(i):
        reads.append(i)
        return word[i] if i < len(word) else 1 + i % 2
    return ContinuedFraction.from_rule(rule, depth_cap)


def _tail_words(heads, k, c, d):
    """The two words of TAIL_HEADS[heads] whose tails past the shared
    rows agree on k coefficients and then read c and d."""
    head_a, head_b = TAIL_HEADS[heads]
    shared = tuple(1 + i % 3 for i in range(k))
    return (head_a + shared + (c,), len(head_a) - 1,
            head_b + shared + (d,), len(head_b) - 1)


def _sign_outcome(sign, a, nu, b, mu):
    try:
        return sign(a, nu, b, mu, BUDGET)
    except LabError as exc:
        return type(exc), str(exc)


@pytest.fixture
def enclosure_work(monkeypatch):
    """Counts ErrorTerm inits and refinement steps."""
    counts = Counter()
    refine_once, init = ErrorTerm.refine_once, ErrorTerm.__init__

    def counted_refine(term):
        counts["refine"] += 1
        refine_once(term)

    def counted_init(term, *args):
        counts["init"] += 1
        init(term, *args)

    monkeypatch.setattr(ErrorTerm, "refine_once", counted_refine)
    monkeypatch.setattr(ErrorTerm, "__init__", counted_init)
    return counts


@pytest.mark.parametrize("heads", list(TAIL_HEADS))
@pytest.mark.parametrize("kind", ["coefficients", "rule", "periodic"])
def test_shared_rows_take_the_sign_of_the_first_differing_tail_coefficient(
        kind, heads, enclosure_work):
    # first difference at k = 0, odd, even, odd and at the budget, with
    # c_k < d_k and c_k > d_k: the reference's sign, with no error term
    # built and no coefficient read past index +k
    for k in (0, 1, 2, 5, BUDGET):
        for c, d in ((1, 2), (2, 1), (1, 5), (5, 3)):
            word_a, nu, word_b, mu = _tail_words(heads, k, c, d)
            want = enclosure_error_sign(_tail_stream(kind, word_a, []), nu,
                                        _tail_stream(kind, word_b, []), mu,
                                        BUDGET)
            enclosure_work.clear()
            reads_a, reads_b = [], []
            got = irrmeasure.screening._error_sign(
                _tail_stream(kind, word_a, reads_a), nu,
                _tail_stream(kind, word_b, reads_b), mu, BUDGET)
            assert got == want, (k, c, d)
            assert got in (-1, 1)
            assert not enclosure_work
            if kind == "rule":
                assert (max(reads_a), max(reads_b)) == (nu + 1 + k, mu + 1 + k)


@pytest.mark.parametrize("heads", list(TAIL_HEADS))
@pytest.mark.parametrize("kind", ["coefficients", "rule", "periodic"])
def test_tails_equal_through_the_budget_fall_back_to_the_enclosures(
        kind, heads, enclosure_work):
    # a first difference at k = BUDGET + 1 is past the deepest coefficient
    # compare_errors reads: periodic members get the exact surd sign, the
    # others the reference's UndecidedComparison, and no read goes deeper
    word_a, nu, word_b, mu = _tail_words(heads, BUDGET + 1, 1, 2)
    want = _sign_outcome(enclosure_error_sign, _tail_stream(kind, word_a, []), nu,
                         _tail_stream(kind, word_b, []), mu)
    reads_a, reads_b = [], []
    a, b = _tail_stream(kind, word_a, reads_a), _tail_stream(kind, word_b, reads_b)
    enclosure_work.clear()
    assert _sign_outcome(irrmeasure.screening._error_sign, a, nu, b, mu) == want
    assert enclosure_work["init"] == 2 and enclosure_work["refine"] > 0
    if kind == "periodic":
        assert a.exact_value() is not None and b.exact_value() is not None
        assert want in (-1, 1)
    else:
        assert want[0] is UndecidedComparison
    if kind == "rule":
        assert (max(reads_a), max(reads_b)) == (nu + 1 + BUDGET, mu + 1 + BUDGET)


@pytest.mark.parametrize("end", [0, 3], ids=["end_at_k0", "end_at_k3"])
@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("kind", ["coefficients", "rule", "periodic"])
def test_tail_reads_that_fail_fall_back_to_the_enclosures(kind, side, end):
    # one member stops inside the scanned tail, at index +end before the
    # first difference (k = 5): a finite backing runs out, a rule or a
    # periodic backing hits its depth cap. The reference's exception
    # class and message, or for periodic members its exact sign
    def pair():
        word_a, nu, word_b, mu = _tail_words("nu=mu=2", 5, 1, 2)
        words = {"a": word_a, "b": word_b}
        stop = len(TAIL_HEADS["nu=mu=2"][0]) + end
        short = words[side][:stop]
        streams = {name: _tail_stream(kind, word, []) for name, word in words.items()}
        if kind == "coefficients":
            streams[side] = ContinuedFraction.from_coefficients(short)
        else:
            streams[side] = _tail_stream(kind, words[side], [], depth_cap=stop - 1)
        return streams["a"], nu, streams["b"], mu

    want = _sign_outcome(enclosure_error_sign, *pair())
    assert _sign_outcome(irrmeasure.screening._error_sign, *pair()) == want
    if kind == "periodic" and end:
        assert want in (-1, 1)
    else:
        failure = DepthExhausted if kind == "coefficients" else DepthCapExceeded
        assert want[0] is failure


def test_a_zero_budget_is_rejected_on_shared_rows_too():
    word_a, nu, word_b, mu = _tail_words("nu=mu=0", 0, 1, 2)
    for sign in (enclosure_error_sign, irrmeasure.screening._error_sign):
        with pytest.raises(ValueError, match="max_depth must be >= 1"):
            sign(_tail_stream("periodic", word_a), nu,
                 _tail_stream("periodic", word_b), mu, 0)


# --------------------------------------------------------------- reversal

def test_reversal_pattern_at_shared_denominator_five(phi_cf, sqrt2_cf):
    records = check_reversal_pattern(phi_cf, sqrt2_cf, depth=12)
    assert len(records) == 1
    rec = records[0]
    assert rec.shared_q == 5 and (rec.nu, rec.mu) == (4, 2)
    # hypothesis: psi_phi(4) = 0.1459 < psi_root2(4) = 0.1716
    assert rec.applicable
    # prediction at the a-side previous denominator (q = 3, so t = 2):
    # psi_phi(2) = 0.2361 > psi_root2(2) = 0.1716
    assert rec.alpha_prev_time == 2
    assert rec.reversal_at_alpha_prev is True


def test_reversal_hypothesis_gate(phi_cf, sqrt2_cf):
    # swapped roles: psi_root2(4) > psi_phi(4) fails the hypothesis
    records = check_reversal_pattern(sqrt2_cf, phi_cf, depth=12)
    assert len(records) == 1
    assert records[0].applicable is False
    assert records[0].reversal_at_alpha_prev is None


def test_reversal_empty_without_shared_denominators():
    a = ContinuedFraction.periodic([1], [3])   # q: 1, 3, 10, 33, ...
    b = ContinuedFraction.periodic([1], [5])   # q: 1, 5, 26, 131, ...
    assert check_reversal_pattern(a, b, depth=10) == []


def test_reversal_burn_in_filters_records(phi_cf, sqrt2_cf):
    assert check_reversal_pattern(phi_cf, sqrt2_cf, depth=12, burn_in=5) == []


def test_reversal_prediction_holds_past_burn_in(sqrt2_cf):
    # partners crafted to share the denominator 169 with sqrt2 well past
    # the default burn-in; every applicable record must show the
    # predicted reversal at the a-side previous denominator
    for period in ([5], [3, 1], [2, 7], [1, 1, 6]):
        b = ContinuedFraction.periodic([1, 2, 84], period)
        log = scan_coincidences(sqrt2_cf, b, depth=40)
        assert log.verdict is Verdict.INDEPENDENT_LIKELY
        burn_in = max(100, log.time_horizon)
        records = check_reversal_pattern(sqrt2_cf, b, depth=40, burn_in=burn_in)
        applicable = [r for r in records if r.applicable]
        assert applicable, "the crafted shared denominator must show up"
        for rec in applicable:
            assert rec.reversal_at_alpha_prev is True


def test_reversal_prediction_is_not_vacuous_on_shared_prefix_pairs():
    # independent pairs sharing a 10-25 coefficient prefix meet the
    # hypothesis at many shared denominators; the a-side prediction must
    # hold on every one (the b-side reading is raw data, not asserted)
    rng = random.Random(52061)
    pairs = [random_shared_prefix_pair(rng) for _ in range(20)]
    records = [rec for a, b in pairs for x, y in ((a, b), (b, a))
               for rec in check_reversal_pattern(x, y, depth=50)]
    applicable = [rec for rec in records if rec.applicable]
    beta = Counter(rec.reversal_at_beta_prev for rec in applicable)
    print(f"reversal records {len(records)}, applicable {len(applicable)}, "
          f"b-side readings {dict(beta)}")
    assert len(applicable) > 0
    assert all(rec.reversal_at_alpha_prev is True for rec in applicable)
