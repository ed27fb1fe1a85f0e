"""Measured symmetry structure of each model family."""

import itertools

import numpy as np
import pytest

import qjc.symmetry
from qjc._linalg import eig_checked, eigvals_checked
from qjc.errors import NumericalError, UnpairableSpectrumError, ValidationError
from qjc.fock import SpinFockOperator, TruncatedFockSpace
from qjc.models import ModelParams, build_extended, build_h12, build_ht, build_jcm, build_pseudo_jcm
from qjc.symmetry import (
    check_hermitian,
    check_pseudo_hermitian,
    check_pt,
    classify_eigenvalues,
    classify_spectrum,
    commutator_deviation,
    parity_matrix,
    sigma3_operator,
    symmetry_report,
)

SPACE = TruncatedFockSpace(cutoff=32, guard=8)


def parity_sigma3_operator(space: TruncatedFockSpace) -> np.ndarray:
    """The dense parity-sigma3 metric, a product of two diagonal +-1 operators."""
    return sigma3_operator(space) @ parity_matrix(space)


def test_sigma3_conjugation_maps_sign_flipped_models_to_adjoint():
    # The sigma3 route holds entrywise-exactly for every phi = -1 member;
    # for phi = +1 the model is already its own adjoint instead.
    for k in (1, 2, 3):
        params = ModelParams(epsilon=0.7, rho=1.2, k=k, phi=-1)
        h = build_extended(params, SPACE)
        ok, dev = check_pseudo_hermitian(h, sigma3_operator(SPACE))
        assert ok and dev == 0.0
        herm_ok, herm_dev = check_hermitian(h)
        assert not herm_ok and herm_dev > 1.0

        hermitian = build_extended(
            ModelParams(epsilon=0.7, rho=1.2, k=k, phi=1), SPACE
        )
        assert check_hermitian(hermitian) == (True, 0.0)
        ok_s3, dev_s3 = check_pseudo_hermitian(hermitian, sigma3_operator(SPACE))
        assert not ok_s3 and dev_s3 > 1.0


def test_parity_conjugation_odd_k_only():
    # Parity anticommutes with any odd ladder string, so it reproduces the
    # sigma3 identity exactly for odd k with the flipped coupling; for even
    # k parity commutes with the whole matrix instead.
    pjcm = build_pseudo_jcm(ModelParams(epsilon=1.0, rho=0.8), SPACE)
    ok, dev = check_pseudo_hermitian(pjcm, parity_matrix(SPACE), guard_banded=True)
    assert ok and dev == 0.0

    k3 = build_extended(ModelParams(epsilon=1.0, rho=0.8, k=3, phi=-1), SPACE)
    ok3, dev3 = check_pseudo_hermitian(k3, parity_matrix(SPACE), guard_banded=True)
    assert ok3 and dev3 == 0.0

    even = build_extended(ModelParams(epsilon=1.0, rho=0.8, k=2, phi=-1), SPACE)
    ok_even, dev_even = check_pseudo_hermitian(
        even, parity_matrix(SPACE), guard_banded=True
    )
    assert not ok_even and dev_even > 0.5
    assert commutator_deviation(even, parity_matrix(SPACE)) == 0.0


def test_parity_sigma3_commutes_for_odd_k_any_sign():
    for phi in (-1, 1):
        h = build_extended(ModelParams(epsilon=0.9, rho=1.1, k=1, phi=phi), SPACE)
        assert commutator_deviation(h, parity_sigma3_operator(SPACE)) == 0.0
        h3 = build_extended(ModelParams(epsilon=0.9, rho=1.1, k=3, phi=phi), SPACE)
        assert commutator_deviation(h3, parity_sigma3_operator(SPACE)) == 0.0
    even = build_extended(ModelParams(epsilon=0.9, rho=1.1, k=2, phi=1), SPACE)
    assert commutator_deviation(even, parity_sigma3_operator(SPACE)) > 0.5


def test_parity_sigma3_pseudo_hermiticity_even_k_flipped_sign():
    # Both factors flip the two-photon coupling once each: their product
    # maps the even-k phi = -1 model to its adjoint.
    even = build_extended(ModelParams(epsilon=1.0, rho=0.8, k=2, phi=-1), SPACE)
    ok, dev = check_pseudo_hermitian(even, parity_sigma3_operator(SPACE))
    assert ok and dev == 0.0
    odd = build_pseudo_jcm(ModelParams(epsilon=1.0, rho=0.8), SPACE)
    ok_odd, _ = check_pseudo_hermitian(odd, parity_sigma3_operator(SPACE))
    assert not ok_odd


def test_antisymmetric_coupling_is_not_pt_symmetric():
    # Parity conjugation flips a and adag, so the one-photon exchange term
    # changes sign: deviation is exactly twice the largest coupling entry.
    params = ModelParams(epsilon=1.0, rho=0.6)
    h = build_pseudo_jcm(params, SPACE)
    ok, dev = check_pt(h)
    assert not ok
    assert dev == pytest.approx(2 * 0.6 * np.sqrt(31), rel=1e-14)

    diagonal = build_pseudo_jcm(ModelParams(epsilon=1.0, rho=0.0), SPACE)
    assert check_pt(diagonal) == (True, 0.0)

    jcm = build_jcm(params, SPACE)
    ok_jcm, _ = check_pt(jcm)
    assert not ok_jcm  # hermitian yet not PT invariant


def test_classify_two_photon_phi_minus():
    # With eps = hw = 1 the n-th doublet coalesces at 1/(2 sqrt((n+1)(n+2))),
    # so rho = 0.5 puts every doublet past its exceptional point while the
    # two singlets stay real: a mixed spectrum of conjugate pairs + reals.
    mixed = build_extended(ModelParams(epsilon=1.0, rho=0.5, k=2, phi=-1), SPACE)
    assert classify_spectrum(mixed) == "mixed"

    small = build_extended(ModelParams(epsilon=1.0, rho=0.005, k=2, phi=-1), SPACE)
    assert classify_spectrum(small) == "all-real"

    hermitian = build_extended(ModelParams(epsilon=1.0, rho=2.0, k=2, phi=1), SPACE)
    assert classify_spectrum(hermitian) == "all-real"


def test_classify_eigenvalue_lists_directly():
    assert classify_eigenvalues(np.array([1.0, 2.0, 3.0])) == "all-real"
    assert (
        classify_eigenvalues(np.array([1 + 2j, 1 - 2j, 0.5 + 1j, 0.5 - 1j]))
        == "conjugate-pairs"
    )
    assert classify_eigenvalues(np.array([1.0, 1 + 2j, 1 - 2j])) == "mixed"
    with pytest.raises(UnpairableSpectrumError):
        classify_eigenvalues(np.array([1.0, 1 + 2j]))
    with pytest.raises(UnpairableSpectrumError):
        classify_eigenvalues(np.array([1 + 2j, 1 - 2.001j]))


def _classify_by_list(eigenvalues: np.ndarray) -> str:
    """The list-based greedy pairing `classify_eigenvalues` replaced."""
    w = np.asarray(eigenvalues, dtype=complex)
    scale = np.maximum(1.0, np.abs(w))
    real_mask = np.abs(w.imag) <= qjc.symmetry.REALNESS_TOL * scale
    complex_vals = list(w[~real_mask])
    n_real = int(np.count_nonzero(real_mask))
    while complex_vals:
        z = complex_vals.pop()
        dists = [abs(z.conjugate() - other) for other in complex_vals]
        if not dists:
            raise UnpairableSpectrumError(
                f"eigenvalue {z:.6g} has no conjugate partner; raise the cutoff"
            )
        best = int(np.argmin(dists))
        if dists[best] > qjc.symmetry.REALNESS_TOL * max(1.0, abs(z)):
            raise UnpairableSpectrumError(
                f"eigenvalue {z:.6g} unpaired (nearest conjugate gap "
                f"{dists[best]:.3e}); raise the cutoff"
            )
        complex_vals.pop(best)
    if n_real == len(w):
        return "all-real"
    if n_real == 0:
        return "conjugate-pairs"
    return "mixed"


def _verdict(classify, eigenvalues):
    try:
        return classify(eigenvalues)
    except UnpairableSpectrumError as exc:
        return f"raised: {exc}"


def _builder_spectra():
    """Every builder's spectrum at both signs of phi (jcm and pseudo-jcm fix
    their own), from both eigensolvers: real matrices, so LAPACK gives each
    complex value with its exact conjugate."""
    space = TruncatedFockSpace(64, 8)
    for phi, rho in itertools.product((1, -1), (0.3, 1.5)):
        ops = [build_extended(ModelParams(rho=rho, phi=phi, k=k), space) for k in (1, 2, 3, 4)]
        ops.append(build_jcm(ModelParams(rho=rho), space))
        ops.append(build_pseudo_jcm(ModelParams(epsilon=1.0, rho=rho), space))
        ops.append(build_h12(ModelParams(rho=rho, phi=phi, theta=1.2), space))
        ops.append(build_ht(ModelParams(rho=rho, phi=phi, theta=1.2, n_qes=5), space))
        for h in ops:
            yield eigvals_checked(h.matrix)
            yield eig_checked(h.matrix)[0]


def test_classify_matches_the_list_pairing(monkeypatch):
    looped = []
    pair_greedily = qjc.symmetry._pair_greedily
    monkeypatch.setattr(
        qjc.symmetry, "_pair_greedily", lambda values: looped.append(values) or pair_greedily(values)
    )
    verdicts = set()
    for spectrum in _builder_spectra():
        verdict = _verdict(classify_eigenvalues, spectrum)
        assert verdict == _verdict(_classify_by_list, spectrum)
        verdicts.add(verdict)
    # every verdict a builder gives, each without the greedy loop: closed under conjugation
    assert verdicts == {"all-real", "mixed"} and looped == []
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(0, 40))
        pairs = rng.normal(size=n) + 1j * rng.normal(size=n)
        # repeated values make ties that the first-minimum rule must break the same way
        pairs = np.concatenate([pairs, pairs[: trial % 4]])
        spectrum = np.concatenate([pairs, pairs.conj(), rng.normal(size=rng.integers(0, 5))])
        spectrum = spectrum[rng.permutation(spectrum.size)]
        # shift a few values within, or beyond, the pairing tolerance
        spectrum[: trial % 3] += (1e-12j, 1e-7)[trial % 2]
        assert _verdict(classify_eigenvalues, spectrum) == _verdict(_classify_by_list, spectrum)
    # closed, with repeated pairs: no loop; one value one ulp off: the loop, within tolerance
    closed = np.array([0.5, 1 + 2j, 1 - 2j, 1 + 2j, 1 - 2j, -3 - 1j, -3 + 1j, 1 + 2j, 1 - 2j])
    moved = closed.copy()
    moved[3] = complex(np.nextafter(1.0, 2.0), 2.0)
    cases = [(closed, "mixed", 0), (closed[1:], "conjugate-pairs", 0), (moved, "mixed", 1)]
    for spectrum, verdict, loops in cases:
        looped.clear()
        assert _verdict(classify_eigenvalues, spectrum) == verdict == _verdict(_classify_by_list, spectrum)
        assert len(looped) == loops
    unpaired = np.array([2 + 1j, 2 - 1j, 0.5, 3 + 0.25j, 1 - 1e-3j, 1 + 1e-3j])
    verdict = _verdict(classify_eigenvalues, unpaired)
    assert verdict.startswith("raised: eigenvalue 3+0.25j unpaired")
    assert verdict == _verdict(_classify_by_list, unpaired)
    # an even number of non-real values, not closed: the loop raises all the same
    even = np.array([1 + 2j, 1 - 2j, 2 + 1j, 2 + 1j])
    assert _verdict(classify_eigenvalues, even) == _verdict(_classify_by_list, even)
    assert _verdict(classify_eigenvalues, even).startswith("raised: eigenvalue 2+1j unpaired")


@pytest.mark.parametrize(
    "values", [[np.nan, np.nan], [complex(0, np.inf), complex(0, -np.inf)], [np.inf, 1.0]]
)
def test_classify_refuses_a_value_that_is_not_finite(values):
    # each once gave a verdict: no nan gap is above the pairing tolerance, and
    # |Im w| <= REALNESS_TOL * |w| holds at |w| = inf
    with pytest.raises(NumericalError, match="is not finite; no spectrum class reads it"):
        classify_eigenvalues(np.array(values))


@pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
def test_eigensolver_gate_refuses_a_matrix_outside_the_float_range(entry):
    # ||H||_F overflows (1e200 squared) or is not finite at all: no residual
    # can be judged against it, so no spectrum comes back to be classified
    with pytest.raises(NumericalError, match="eigensolver residual gate.*float range"):
        eig_checked(np.diag([entry, 1.0]))
    with pytest.raises(NumericalError, match="eigensolver residual gate"):
        symmetry_report(build_extended(ModelParams(rho=1e300, k=2), SPACE))


def test_symmetry_report_shape():
    h = build_pseudo_jcm(ModelParams(epsilon=1.0, rho=0.3), SPACE)
    report = symmetry_report(h)
    assert not report.hermitian
    assert not report.pt_symmetric
    assert report.pseudo_hermitian["sigma3"][0]
    assert report.pseudo_hermitian["parity"][0]
    assert not report.pseudo_hermitian["parity_sigma3"][0]
    assert report.parity_sigma3_commutant == 0.0
    assert report.spectrum_class in {"all-real", "mixed", "conjugate-pairs"}


@pytest.mark.parametrize("check", [check_pseudo_hermitian, commutator_deviation])
def test_metric_operators_must_be_diagonal_signs(check):
    h = build_pseudo_jcm(ModelParams(rho=0.4), SPACE)
    reversal = np.eye(SPACE.dim)[::-1]  # an involution, but not diagonal
    off_diagonal = sigma3_operator(SPACE)
    off_diagonal[0, 1] = 0.5
    doubled = sigma3_operator(SPACE)
    doubled[3, 3] = 2.0
    for op in (reversal, off_diagonal, doubled, np.diag(doubled)):
        with pytest.raises(ValidationError, match=r"diagonal with entries \+1 or -1"):
            check(h, op)
    with pytest.raises(ValidationError, match="does not match"):
        check(h, np.ones(SPACE.dim - 1))


def _same(got: float, dense: float) -> bool:
    return got == dense or (np.isnan(got) and np.isnan(dense))


def _assert_dense_conjugation(h):
    """Each deviation, read from the nonzero entries, against the dense n x n form."""
    space = h.space
    keep = np.tile(np.arange(space.cutoff) <= space.reliable_max, 2)
    with np.errstate(invalid="ignore"):  # inf - inf, inf * 0 in a dense product
        herm = h.matrix - h.matrix.conj().T
        assert _same(check_hermitian(h)[1], float(np.max(np.abs(herm))))
        for eta in (sigma3_operator(space), parity_matrix(space), parity_sigma3_operator(space)):
            signs = np.diag(eta)  # the products by eta are sign flips, as in eta @ H @ eta^-1
            dense = signs[:, None] * h.matrix * signs[None, :] - h.matrix.conj().T
            commutator = h.matrix * signs[None, :] - signs[:, None] * h.matrix
            for form in (eta, signs):
                assert _same(check_pseudo_hermitian(h, form)[1], float(np.max(np.abs(dense))))
                banded = float(np.max(np.abs(dense[np.ix_(keep, keep)])))
                assert _same(check_pseudo_hermitian(h, form, guard_banded=True)[1], banded)
                assert _same(commutator_deviation(h, form), float(np.max(np.abs(commutator))))
        parity = np.diag(parity_matrix(space))
        pt = parity[:, None] * h.matrix.conj() * parity[None, :] - h.matrix
        assert _same(check_pt(h)[1], float(np.max(np.abs(pt))))


@pytest.mark.parametrize("phi", [1, -1])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sign_masks_match_dense_conjugation(k, phi):
    h = build_extended(ModelParams(epsilon=0.7, rho=0.9, k=k, phi=phi), SPACE)
    for eta in (sigma3_operator(SPACE), parity_matrix(SPACE), parity_sigma3_operator(SPACE)):
        dense = eta @ h.matrix @ np.linalg.inv(eta) - h.matrix.conj().T
        commutator = h.matrix @ eta - eta @ h.matrix
        for form in (eta, np.diag(eta)):
            assert check_pseudo_hermitian(h, form)[1] == float(np.max(np.abs(dense)))
            assert commutator_deviation(h, form) == float(np.max(np.abs(commutator)))
    parity = parity_matrix(SPACE)
    pt = parity @ h.matrix.conj() @ parity - h.matrix
    assert check_pt(h)[1] == float(np.max(np.abs(pt)))
    _assert_dense_conjugation(h)


def _path_models():
    for phi in (1, -1):
        for theta in (0.7, 1.3):
            yield f"h12-{phi}-{theta}", build_h12(ModelParams(rho=0.9, phi=phi, theta=theta), SPACE)
            yield f"ht-{phi}-{theta}", build_ht(ModelParams(rho=0.9, phi=phi, theta=theta, n_qes=4), SPACE)
    # one-sided bands: the pattern of H is not that of its transpose
    yield "ht-one-sided", build_ht(ModelParams(rho=0.9, phi=-1, theta=0.7, c_hat=0.0, n_qes=4), SPACE)
    large = TruncatedFockSpace(256, 8)
    yield "h12-D256", build_h12(ModelParams(rho=0.9, phi=-1, theta=0.7), large)
    yield "h2-D256", build_extended(ModelParams(rho=0.9, phi=-1, k=2), large)
    real, scale = build_pseudo_jcm(ModelParams(rho=0.9), SPACE), 1 + 0.5j
    bands = {j: (upper * scale, lower * scale) for j, (upper, lower) in real.bands.items()}
    yield "pseudo-jcm-complex", SpinFockOperator(SPACE, real.diagonal * scale, bands)


@pytest.mark.parametrize("h", [pytest.param(h, id=name) for name, h in _path_models()])
def test_sign_masks_match_dense_conjugation_on_path_models(h):
    _assert_dense_conjugation(h)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_a_non_finite_entry_gives_the_dense_deviations(entry):
    h = build_h12(ModelParams(rho=0.9, phi=-1, theta=0.7), SPACE)
    upper, lower = np.zeros(SPACE.cutoff - 5), np.zeros(SPACE.cutoff - 5)
    upper[3] = entry  # H[3, 40], on band j = 5: an entry whose transpose is 0
    _assert_dense_conjugation(SpinFockOperator(SPACE, h.diagonal, {**h.bands, 5: (upper, lower)}))
    lower[3] = entry  # and H[40, 3]
    _assert_dense_conjugation(SpinFockOperator(SPACE, h.diagonal, {**h.bands, 5: (upper, lower)}))


def test_report_builds_no_dense_metric(monkeypatch):
    h = build_extended(ModelParams(epsilon=0.7, rho=0.9, k=2, phi=-1), SPACE)
    expected = symmetry_report(h)

    def refuse(space):
        raise AssertionError("dense metric built")

    for name in ("sigma3_operator", "parity_matrix"):
        monkeypatch.setattr(qjc.symmetry, name, refuse)
    monkeypatch.setattr(qjc.symmetry.np, "kron", refuse)
    assert symmetry_report(h) == expected
