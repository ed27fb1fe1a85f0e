"""Hamiltonian assembly oracles: matrix elements checked by hand expansion."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose, assert_array_equal

import qjc
from qjc.errors import ValidationError
from qjc.fock import SPIN_DOWN, SPIN_UP, TruncatedFockSpace, basis_index
from qjc.models import (
    ModelParams,
    build_extended,
    build_h12,
    build_ht,
    build_jcm,
    build_pseudo_jcm,
)
from qjc.models import _lowering_band


def element(space, h, bra, ket):
    return h.matrix[basis_index(space, *bra), basis_index(space, *ket)]


def test_pseudo_jcm_coupling_elements_at_d4():
    # Hand expansion at D = 4: the antisymmetric one-photon exchange gives
    # <0,up|H|1,down> = rho * sqrt(1) and <1,down|H|0,up> = -rho * sqrt(1).
    space = TruncatedFockSpace(cutoff=8, guard=3)
    params = ModelParams(epsilon=1.0, rho=0.7)
    h = build_pseudo_jcm(params, space)
    assert element(space, h, (0, SPIN_UP), (1, SPIN_DOWN)) == pytest.approx(0.7)
    assert element(space, h, (1, SPIN_DOWN), (0, SPIN_UP)) == pytest.approx(-0.7)
    assert element(space, h, (2, SPIN_UP), (3, SPIN_DOWN)) == pytest.approx(
        0.7 * np.sqrt(3.0)
    )


def test_diagonal_part_all_models():
    space = TruncatedFockSpace(cutoff=12, guard=4)
    params = ModelParams(epsilon=0.5, hbar_omega=2.0, rho=0.3)
    h = build_jcm(params, space)
    for n in range(space.cutoff):
        assert element(space, h, (n, SPIN_UP), (n, SPIN_UP)) == pytest.approx(
            2.0 * n + 0.25
        )
        assert element(space, h, (n, SPIN_DOWN), (n, SPIN_DOWN)) == pytest.approx(
            2.0 * n - 0.25
        )


def test_jcm_is_hermitian_pseudo_jcm_is_not():
    space = TruncatedFockSpace(cutoff=16, guard=4)
    params = ModelParams(epsilon=1.0, rho=1.3)
    h_jcm = build_jcm(params, space).matrix
    assert_array_equal(h_jcm, h_jcm.T)
    h_pjcm = build_pseudo_jcm(params, space).matrix
    assert np.max(np.abs(h_pjcm - h_pjcm.T)) == pytest.approx(2 * 1.3 * np.sqrt(15))


def test_extended_three_photon_element_at_d10():
    # a^3 |3> = sqrt(3!) |0>, so <0,up|H|3,down> = rho * sqrt(6).
    space = TruncatedFockSpace(cutoff=10, guard=5)
    params = ModelParams(epsilon=1.0, rho=0.9, k=3, phi=-1)
    h = build_extended(params, space)
    assert element(space, h, (0, SPIN_UP), (3, SPIN_DOWN)) == pytest.approx(
        0.9 * np.sqrt(6.0)
    )
    assert element(space, h, (3, SPIN_DOWN), (0, SPIN_UP)) == pytest.approx(
        -0.9 * np.sqrt(6.0)
    )


def test_extended_phi_plus_one_is_symmetric():
    space = TruncatedFockSpace(cutoff=20, guard=5)
    params = ModelParams(epsilon=0.5, rho=1.0, k=2, phi=1, poly=(0.0, 0.0, 1.0))
    h = build_extended(params, space).matrix
    assert_array_equal(h, h.T)


def test_poly_diagonal_values():
    # with hbar_omega = epsilon = 0 both spin blocks carry P(n) alone
    space = TruncatedFockSpace(cutoff=6, guard=3)
    params = ModelParams(epsilon=0.0, hbar_omega=0.0, poly=(1.0, 0.0, 2.0))  # P(n) = 1 + 2 n^2
    diag = np.diag(build_extended(params, space).matrix)
    assert_allclose(diag, np.tile([1.0, 3.0, 9.0, 19.0, 33.0, 51.0], 2), atol=0.0)


def test_h12_has_no_invariant_contiguous_subspace_elements():
    # The bare one-photon term leaks |n, down> onto |n-1, up> with amplitude
    # rho1_hat-independent value rho1 * sqrt(n); at n = n_qes the dressed
    # model zeroes it while the mixed model keeps it.
    space = TruncatedFockSpace(cutoff=12, guard=4)
    params = ModelParams(epsilon=1.0, rho=1.0, theta=0.9, n_qes=3)
    h12 = build_h12(params, space)
    ht = build_ht(params, space)
    leak_12 = element(space, h12, (2, SPIN_UP), (3, SPIN_DOWN))
    leak_t = element(space, ht, (2, SPIN_UP), (3, SPIN_DOWN))
    assert leak_12 == pytest.approx(0.9 * np.sqrt(3.0))
    assert leak_t == 0.0


def test_ht_matches_hand_expanded_columns():
    # Column of |M, down>: rho sqrt(M(M-1)) onto |M-2, up> and
    # c (M - n) sqrt(M) onto |M-1, up>; column of |N, up>: phi rho
    # sqrt((N+1)(N+2)) onto |N+2, down> and c_hat (N+1-n) sqrt(N+1) onto
    # |N+1, down>.
    space = TruncatedFockSpace(cutoff=16, guard=5)
    params = ModelParams(
        epsilon=0.8, rho=1.1, theta=1.2, n_qes=4, phi=-1, hbar_omega=1.0
    )
    c = c_hat = -1.2 / 4
    h = build_ht(params, space)
    m = 5
    assert element(space, h, (m - 2, SPIN_UP), (m, SPIN_DOWN)) == pytest.approx(
        1.1 * np.sqrt(m * (m - 1))
    )
    assert element(space, h, (m - 1, SPIN_UP), (m, SPIN_DOWN)) == pytest.approx(
        c * (m - 4) * np.sqrt(m)
    )
    j = 3
    assert element(space, h, (j + 2, SPIN_DOWN), (j, SPIN_UP)) == pytest.approx(
        -1.1 * np.sqrt((j + 1) * (j + 2))
    )
    assert element(space, h, (j + 1, SPIN_DOWN), (j, SPIN_UP)) == pytest.approx(
        c_hat * (j + 1 - 4) * np.sqrt(j + 1)
    )


def test_ht_theta_zero_reduces_to_two_photon_model():
    space = TruncatedFockSpace(cutoff=16, guard=5)
    for phi in (1, -1):
        qes = ModelParams(epsilon=1.0, rho=0.6, theta=0.0, n_qes=3, phi=phi)
        two_photon = ModelParams(epsilon=1.0, rho=0.6, k=2, phi=phi)
        assert_array_equal(
            build_ht(qes, space).matrix, build_extended(two_photon, space).matrix
        )


def test_explicit_couplings_override_theta_convention():
    space = TruncatedFockSpace(cutoff=14, guard=4)
    via_theta = ModelParams(epsilon=1.0, rho=0.5, theta=1.5, n_qes=3)
    explicit = ModelParams(
        epsilon=1.0, rho=0.5, n_qes=3, c=-0.5, c_hat=-0.5
    )
    assert_array_equal(
        build_ht(via_theta, space).matrix, build_ht(explicit, space).matrix
    )
    assert via_theta.qes_couplings() == (-0.5, -0.5)
    assert via_theta.one_photon_couplings() == (1.5, 1.5)


def test_param_validation():
    with pytest.raises(ValueError):
        ModelParams(phi=2)
    with pytest.raises(ValueError):
        ModelParams(k=0)
    with pytest.raises(ValueError):
        ModelParams(poly=(0.0, 1.0))  # degree 1 not allowed
    with pytest.raises(ValueError):
        ModelParams(n_qes=1)
    space = TruncatedFockSpace(cutoff=32, guard=8)
    with pytest.raises(ValueError):
        build_ht(ModelParams(rho=1.0), space)  # n_qes unset


@pytest.mark.parametrize(
    "field, value", [("k", 2.5), ("n_qes", 4.5), ("k", math.nan)]
)
def test_non_integral_fields_are_rejected(field, value):
    with pytest.raises(ValidationError, match=field):
        ModelParams(**{field: value})


def test_poly_list_is_held_as_a_tuple():
    from qjc.recurrence import critical_roots, reconstruct_eigenvector

    listed = ModelParams(rho=0.8, theta=1.2, n_qes=4, phi=-1, poly=[0, 0, 0.1])
    tupled = ModelParams(rho=0.8, theta=1.2, n_qes=4, phi=-1, poly=(0, 0, 0.1))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert isinstance(listed.poly, tuple)
    space = TruncatedFockSpace(cutoff=32, guard=8)
    for root in critical_roots(listed):
        reconstruct_eigenvector(listed, root, space)


def test_guard_band_enforcement():
    small_guard = TruncatedFockSpace(cutoff=32, guard=3)
    with pytest.raises(ValueError):
        build_extended(ModelParams(rho=1.0, k=2), small_guard)
    tight = TruncatedFockSpace(cutoff=10, guard=8)
    with pytest.raises(ValueError):
        build_extended(ModelParams(rho=1.0, k=2), tight)
    with pytest.raises(ValueError):
        build_ht(ModelParams(rho=1.0, n_qes=22), TruncatedFockSpace(32, 8))


def test_rho_sign_is_a_similarity():
    # sigma3 conjugation flips the sign of both exchange blocks, so the
    # spectrum can only depend on rho through rho^2.
    space = TruncatedFockSpace(cutoff=24, guard=6)
    plus = build_extended(ModelParams(epsilon=0.7, rho=0.8, k=2, phi=-1), space)
    minus = build_extended(ModelParams(epsilon=0.7, rho=-0.8, k=2, phi=-1), space)
    s3 = np.kron(np.diag([1.0, -1.0]), np.eye(space.cutoff))
    assert_array_equal(s3 @ plus.matrix @ s3, minus.matrix)


# Dense reference: ladder operators from np.diag, composed with @ and
# np.linalg.matrix_power, spin blocks placed by np.kron as in test_fock.
SPIN_UP_UP = np.diag([1.0, 0.0])
SPIN_DOWN_DOWN = np.diag([0.0, 1.0])
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])


def dense_reference(kind, params, cutoff):
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), k=1)
    adag = a.T
    n_hat = np.diag(np.arange(cutoff, dtype=float))
    photon = params.hbar_omega * n_hat
    if kind == "extended":
        if params.poly:
            photon = photon + np.diag(npoly.polyval(np.arange(cutoff, dtype=float), params.poly))
        a_k = np.linalg.matrix_power(a, params.k)
        upper = params.rho * a_k
        lower = params.phi * params.rho * a_k.T
    elif kind == "h12":
        rho1, rho1_hat = params.one_photon_couplings()
        upper = params.rho * (a @ a) + rho1 * a
        lower = params.phi * params.rho * (a @ a).T + rho1_hat * adag
    else:
        c, c_hat = params.qes_couplings()
        shifted = n_hat - params.n_qes * np.eye(cutoff)
        upper = params.rho * (a @ a) + c * (a @ shifted)
        lower = params.phi * params.rho * (adag @ adag) + c_hat * (shifted @ adag)
    half = 0.5 * params.epsilon * np.eye(cutoff)
    return (
        np.kron(SPIN_UP_UP, photon + half)
        + np.kron(SIGMA_PLUS, upper)
        + np.kron(SIGMA_PLUS.T, lower)
        + np.kron(SPIN_DOWN_DOWN, photon - half)
    )


# builder -> (reference kind, the parameters it actually reads)
REFERENCE = {
    build_extended: ("extended", lambda p: dataclasses.replace(p, theta=0.0)),
    build_jcm: ("extended", lambda p: dataclasses.replace(p, phi=1, k=1, poly=(), theta=0.0)),
    build_pseudo_jcm: ("extended", lambda p: dataclasses.replace(p, phi=-1, k=1, poly=(), theta=0.0)),
    build_h12: ("h12", lambda p: dataclasses.replace(p, k=1, poly=())),
    build_ht: ("ht", lambda p: dataclasses.replace(p, k=1, poly=())),
}


@pytest.mark.parametrize("cutoff", [16, 64, 512])
def test_builders_equal_dense_kronecker_reference(cutoff):
    seen = set()
    for k in range(1, 11):
        for phi in (1, -1):
            for rho in (0.0, 0.37):
                for theta in (0.0, 1.2):
                    for poly in ((), (0.0, 0.0, 0.05)):
                        params = ModelParams(
                            epsilon=0.8, hbar_omega=1.1, rho=rho, phi=phi, k=k,
                            poly=poly, theta=theta, n_qes=4,
                        )
                        for build, (kind, reads) in REFERENCE.items():
                            effective = reads(params)
                            guard = max(effective.k, 2) + 2
                            if (build, effective) in seen or cutoff <= effective.k + guard:
                                continue
                            seen.add((build, effective))
                            space = TruncatedFockSpace(cutoff, guard)
                            assert np.array_equal(
                                build(params, space).matrix,
                                dense_reference(kind, effective, cutoff),
                            ), (build.__name__, effective)
    # every builder met every (phi, rho, theta, P) it reads, and k up to 10 where D allows
    assert len(seen) == 2 * 2 * 2 * min(10, (cutoff - 3) // 2) + 2 + 2 + 8 + 8


@pytest.mark.parametrize("cutoff", [16, 64, 512])
def test_lowering_band_has_the_bits_of_matrix_power(cutoff):
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), k=1)
    for k in range(1, 13):
        dense = np.diag(np.linalg.matrix_power(a, k), k=k)
        assert _lowering_band(cutoff, k).tobytes() == dense.tobytes(), k


ROUTES = ("closedform", "qes", "recurrence", "polyrep")


def _qjc_imports(source: str) -> set[str]:
    """The `qjc` modules a module's source imports, however it spells them."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("qjc" if node.level else "", node.module)))
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("qjc."))
    return found


def test_import_parser_reads_every_spelling():
    source = "from .qes import x\nfrom . import polyrep\nimport qjc.flow\nfrom qjc import cli\n"
    assert _qjc_imports(source) == {"qes", "polyrep", "flow", "cli"}


@pytest.mark.parametrize("route", ROUTES)
def test_the_routes_do_not_import_each_other(route):
    # the routes share the dressed model and its subspace through `models` only
    imported = _qjc_imports((Path(qjc.__file__).parent / f"{route}.py").read_text())
    assert "models" in imported
    assert imported.isdisjoint(set(ROUTES) - {route}), imported
