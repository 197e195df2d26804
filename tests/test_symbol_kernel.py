"""The batched boundary-symbol kernel: against the scalar code it replaced
(frozen in ``scalar_reference.py``), and row by row against itself alone.

Residues, contour quadrature, DN symbol, companion check and polarization
frame are taken over 256-covector fans of the four reference media plus
hand-made rows: P glancing, near S and P glancing, mixed, elliptic, normal
incidence, a base point off the boundary, and an ill-conditioned frame on a
stiff medium.  The block-streamed Lopatinski scan is compared with the
one-pass scan it replaced, across block boundaries.
"""

import tracemalloc

import numpy as np
import pytest
import scalar_reference as ref

import elastoray as er
from elastoray import boundary as bd
from elastoray import polarization as pol
from elastoray import rays

MEDIA = ["constant", "constant_stress", "gaussian_bump", "potential_stress"]
# relative agreement with the replaced code, widened near glancing
TOL = 1e-12
BATCHES = {"residue": bd.residue_batch, "quadrature": bd.quadrature_batch,
           "dn": bd.dn_batch, "companion": bd.companion_batch,
           "frame": pol.frame_batch}
REFERENCES = {"residue": ref.residue_matrices,
              "quadrature": ref.residue_quadrature, "dn": ref.dn_symbol,
              "companion": ref.companion_symbol_check,
              "frame": ref.polarization_frame}


def _hand_rows(m, seed):
    """(x, nu, xi_t, tau) of covectors at one sampled base point: P
    glancing, near P and S glancing on either side, mixed, elliptic and
    normal incidence, and last a hyperbolic one whose base point is moved
    off the boundary."""
    x, nu, xi_t, tau = er.sample_boundary_covectors(
        m, 1, np.random.default_rng(seed), 0.5)
    u, t = xi_t[0], float(tau[0])
    r_s, r_p = (rays._hyperbolic_radius(m, mode, x[0], nu[0], u, t)
                for mode in "SP")
    radii = [r_p, r_p * (1 - 1e-7), r_p * (1 + 1e-7), r_s * (1 - 1e-7),
             0.5 * (r_s + r_p), 2.0 * r_s, 0.0, 0.5 * r_p]
    n = len(radii)
    x = np.repeat(x, n, axis=0)
    x[-1] *= 0.99
    return (x, np.repeat(nu, n, axis=0), np.array(radii)[:, None] * u,
            np.full(n, t))


def _stiff_row():
    """A medium with lambda / mu = 1e8 and a covector near S glancing where
    the polarization basis is too ill-conditioned to invert."""
    m = er.Medium(rho=1.0, lam=1e4, mu=1e-4)
    x, nu, xi_t, tau = er.sample_boundary_covectors(
        m, 1, np.random.default_rng(1), 0.5)
    r_s = rays._hyperbolic_radius(m, "S", x[0], nu[0], xi_t[0],
                                  float(tau[0]))
    return m, (x, nu, (1 - 5e-10) * r_s * xi_t, tau)


def _fan(m, seed, n):
    fan = er.sample_boundary_covectors(m, n, np.random.default_rng(seed),
                                       0.5)
    return tuple(np.concatenate([a, b])
                 for a, b in zip(fan, _hand_rows(m, seed)))


def _covector(arrays, i):
    x, nu, xi_t, tau = arrays
    return er.BoundaryCovector(t=0.0, x=x[i], tau=float(tau[i]),
                               xi_t=xi_t[i], nu=nu[i])


def _reference_values(kind, out):
    """The reference result as the batch's values at one row."""
    if kind == "residue":
        return {"a0": out.a0, "a1": out.a1, "a0_inv": out.a0_inv,
                "cond_a0": out.cond_a0}
    if kind == "quadrature":
        return {"a0": out.a0, "a1": out.a1, "center": out.center,
                "radius": out.radius,
                "windings": [out.windings[label] for label, _ in bd.WINDINGS]}
    if kind == "dn":
        return {"matrix": out.matrix, "route_r": out.route_r,
                "rel_residual": out.rel_residual}
    if kind == "companion":
        return {"eta_norm": out.eta_norm,
                "identity_residual": out.identity_residual,
                "eigenvalue_error": out.eigenvalue_error, "g": out.g}
    proj = list(out.projectors.values()) + [np.zeros((6, 6))] * (
        4 - len(out.projectors))
    return {"e": out.e, "cond": out.cond, "bases": np.concatenate(
        list(out.bases.values()), axis=-1), "projectors": proj,
            "projector_residual": out.projector_residual}


def _check_rows(m, kind, arrays):
    batch = BATCHES[kind](m, *arrays)
    n_values = 0
    for i, err in enumerate(batch.errors):
        gamma = _covector(arrays, i)
        try:
            want = REFERENCES[kind](m, gamma)
        except er.ElastorayError as exc:
            assert (type(err), str(err)) == (type(exc), str(exc)), (kind, i)
            continue
        assert err is None, (kind, i, err)
        got = batch.row(i)
        kappa = max(1.0, 1e-4 / max(bd.discriminant_margin(m, gamma),
                                    1e-300))
        for key, value in _reference_values(kind, want).items():
            value = np.asarray(value)
            err = np.linalg.norm(got[key] - value)
            assert err <= TOL * kappa * max(1.0, np.linalg.norm(value)), \
                (kind, i, key, err)
        if kind == "frame":
            tags, _, _ = zip(*pol.BLOCKS[want.kind])
            assert got["hyperbolic"] == (want.kind == "hyperbolic")
            assert tags == tuple(want.bases)
            assert [j - k for _, k, j in pol.BLOCKS[want.kind]] == [
                b.shape[1] for b in want.bases.values()]
        if kind == "companion":
            assert got["kernel_ok"] == want.kernel_ok
            assert {tag: int(d) for tag, d in zip(bd.KERNEL_TAGS,
                                                   got["kernel_dims"])
                    if d >= 0} == want.kernel_dims
        n_values += 1
    return n_values


@pytest.mark.parametrize("name", MEDIA)
def test_kernel_matches_replaced_scalar_code(name, media_dir):
    m = er.load_medium(media_dir / f"{name}.json")
    arrays = _fan(m, seed=len(name), n=256)
    counts = {kind: _check_rows(m, kind, arrays) for kind in BATCHES}
    # most of the fan admits every quantity; the hand rows do not
    assert all(count >= 100 for count in counts.values()), counts


def test_kernel_matches_replaced_frame_condition_error():
    m, arrays = _stiff_row()
    with pytest.raises(er.FrameConditionError):
        ref.polarization_frame(m, _covector(arrays, 0))
    _check_rows(m, "frame", arrays)
    assert isinstance(pol.frame_batch(m, *arrays).errors[0],
                      er.FrameConditionError)


@pytest.mark.parametrize("name", MEDIA)
def test_rows_alike_alone_and_in_a_batch(name, media_dir):
    m = er.load_medium(media_dir / f"{name}.json")
    arrays = _fan(m, seed=7 * len(name), n=56)
    assert len(arrays[3]) == 64
    for kind, batch_of in BATCHES.items():
        batch = batch_of(m, *arrays)
        assert not all(batch.ok) and any(batch.ok)
        for i, err in enumerate(batch.errors):
            one = batch_of(m, *(a[i:i + 1] for a in arrays))
            assert type(one.errors[0]) is type(err), (kind, i)
            if err is not None:
                assert str(one.errors[0]) == str(err)
                continue
            for key, value in one.values.items():
                row = batch.values[key][i]
                assert row.dtype == value.dtype, (kind, i, key)
                assert np.array_equal(row, value[0]), (kind, i, key)


def test_scalar_views_are_batches_of_one(potential_medium):
    arrays = _fan(potential_medium, seed=3, n=8)
    for i in range(len(arrays[3])):
        gamma = _covector(arrays, i)
        for kind, batch_of in BATCHES.items():
            one = batch_of(potential_medium, *(a[i:i + 1] for a in arrays))
            scalar = getattr(er, ref_name := REFERENCES[kind].__name__)
            if one.errors[0] is not None:
                with pytest.raises(type(one.errors[0])):
                    scalar(potential_medium, gamma)
                continue
            want = _reference_values(kind, scalar(potential_medium, gamma))
            for key, value in want.items():
                assert np.array_equal(one.values[key][0], value), ref_name


# ------------------------------------------ the scalar views' shared root core

# the scalar views of one covector, each called on (m, gamma)
VIEWS = [bd.classify, bd.discriminant_margin, bd.char_roots,
         bd.residue_matrices, bd.residue_quadrature, bd.dn_symbol,
         pol.polarization_frame, pol.muting_annihilation_check,
         bd.companion_symbol_check]


def _bits(value):
    """A view's result with every number as its bytes, or the class and
    message of the ElastorayError it raised."""
    if isinstance(value, er.ElastorayError):
        return type(value), str(value)
    if hasattr(value, "__dataclass_fields__"):
        return {name: _bits(getattr(value, name))
                for name in value.__dataclass_fields__}
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, (np.ndarray, float, complex)):
        value = np.asarray(value)
        return value.dtype.str, value.shape, value.tobytes()
    return value


def _call(view, m, gamma):
    try:
        return _bits(view(m, gamma))
    except er.ElastorayError as exc:
        return _bits(exc)


def _fresh(view, m, gamma):
    """``view`` on a root core built for this call alone."""
    bd._last_core = None
    return _call(view, m, gamma)


@pytest.mark.parametrize("name", MEDIA)
def test_shared_root_core_matches_fresh_cores(name, media_dir):
    m = er.load_medium(media_dir / f"{name}.json")
    arrays = _fan(m, seed=5 * len(name), n=256)
    n_failed = 0
    for i in range(len(arrays[3])):
        gamma = _covector(arrays, i)
        bd._last_core = None
        shared = [_call(view, m, gamma) for view in VIEWS]
        assert bd._last_core[0] is m and bd._last_core[1] is gamma
        assert shared == [_fresh(view, m, gamma) for view in VIEWS], i
        n_failed += any(isinstance(v, tuple) and isinstance(v[0], type)
                        for v in shared)
    assert 0 < n_failed < len(arrays[3])


def test_shared_root_core_follows_the_medium(constant_medium,
                                             stressed_medium):
    gamma = er.boundary_covector(constant_medium, 0.0, [0.0, 0.0, 1.0], 2.0,
                                 [0.6, 0.3, 0.0])
    want = {id(m): [_fresh(view, m, gamma) for view in VIEWS]
            for m in (constant_medium, stressed_medium)}
    assert want[id(constant_medium)] != want[id(stressed_medium)]
    bd._last_core = None
    for m in (constant_medium, stressed_medium) * 2:
        assert [_call(view, m, gamma) for view in VIEWS] == want[id(m)]


def test_failing_views_raise_distinct_exceptions(constant_medium):
    # |xi_t| = 1 = c_S^-1 |tau| puts the S mode at glancing
    gamma = er.boundary_covector(constant_medium, 0.0, [0.0, 0.0, 1.0], 1.0,
                                 [1.0, 0.0, 0.0])
    raised = []
    for view in (er.char_roots, er.char_roots, er.dn_symbol,
                 er.polarization_frame):
        with pytest.raises(er.GlancingError) as exc:
            view(constant_medium, gamma)
        raised.append(exc.value)
    assert len({id(exc) for exc in raised}) == len(raised)
    assert str(raised[0]) == str(raised[1])


@pytest.mark.parametrize("name", MEDIA)
def test_kernels_leave_the_root_core_unchanged(name, media_dir):
    m = er.load_medium(media_dir / f"{name}.json")
    core = bd.RootCore(m, *_fan(m, seed=len(name), n=64))

    def arrays():
        out = {key: np.array(value, copy=True)
               for key, value in vars(core).items()
               if isinstance(value, np.ndarray)}
        out.update((f"fields{k}", np.array(f, copy=True))
                   for k, f in enumerate(core.fields))
        out.update((f"table.{key}", np.array(value, copy=True))
                   for key, value in vars(core.table).items())
        return out

    before = arrays()
    for kernel, args in ((bd._residues, ()), (bd._quadrature, (256,)),
                         (bd._dn, ()), (bd._companion, (None,)),
                         (pol._frame, ())):
        b = bd._run(kernel, core, *args)
        assert not b.ok.all() and b.ok.any()
    after = arrays()
    assert before.keys() == after.keys()
    for key, value in before.items():
        assert value.tobytes() == after[key].tobytes(), key


def test_lopatinski_admissibility_is_kept_per_class_parameters(
        monkeypatch):
    m = er.Medium(rho=1.0, lam=1.0, mu=1.0, class_params=er.ClassParams(
        L=3.5, eps=0.2, delta=0.5))
    checks = []
    check = bd.check_class_membership
    monkeypatch.setattr(bd, "check_class_membership",
                        lambda *a: checks.append(a) or check(*a))
    # lambda + 2 mu = 3 exceeds L = 2
    tight = er.ClassParams(L=2.0, eps=0.2, delta=0.5)
    for params, admissible in ((None, True), (tight, False), (None, True),
                               (tight, False)):
        rep = er.lopatinski_margin(m, params, sample_count=200, seed=1)
        assert rep.admissible is admissible
    assert len(checks) == 2


# around the scan's 2048-row blocks: one row, a block less one, one block,
# a block and one, a partial fourth block, and a symbol_fan-sized scan
SCAN_COUNTS = [1, 2047, 2048, 2049, 3 * 2048 + 17, 20000]


def _scan_outcome(scan, m, n, seed, errors):
    """Every field of a Lopatinski scan's report, bitwise, or the message of
    the error in ``errors`` it raised."""
    try:
        rep = scan(m, sample_count=n, seed=seed)
    except errors as exc:
        return str(exc)
    g = rep.argmin
    return (rep.min_normalized.hex(), rep.n_samples, rep.n_used,
            rep.n_glancing_skipped, rep.region_counts, rep.admissible,
            g.t.hex(), g.tau.hex(), g.x.tobytes(), g.nu.tobytes(),
            g.xi_t.tobytes())


@pytest.mark.parametrize("name", MEDIA)
def test_streamed_scan_matches_one_pass_scan(name, media_dir):
    m = er.load_medium(media_dir / f"{name}.json")
    for seed in range(4):
        for n in SCAN_COUNTS:
            # the one-pass scan raised ValueError where no sample was usable
            want = _scan_outcome(ref.lopatinski_margin, m, n, seed,
                                 (ValueError, er.LopatinskiError))
            got = _scan_outcome(er.lopatinski_margin, m, n, seed,
                                er.LopatinskiError)
            assert got == want, (seed, n)


def test_streamed_scan_skips_a_glancing_block_and_keeps_the_first_tie(
        constant_medium, monkeypatch):
    # the first block is all P glancing (|xi_t| = 1 at tau = c_P), and the
    # minimum is taken by two covectors in the second and third blocks,
    # tied bitwise because they differ only by a permutation of the axes
    n, block = 3 * 2048 + 17, 2048
    x, nu, xi_t, tau = ref.sample_boundary_covectors(
        constant_medium, n, np.random.default_rng(0), 0.5)
    tau = np.where(np.arange(n) < block, np.sqrt(3.0), 3.0) * np.sign(tau)
    e = np.eye(3)
    first, second = block + 5, 2 * block + 7
    for i, (a, b) in ((first, (0, 1)), (second, (1, 2))):
        x[i], nu[i], xi_t[i], tau[i] = e[a], e[a], e[b], 1.7
    fan = (x, nu, xi_t, tau)
    for module in (bd, ref):
        monkeypatch.setattr(module, "sample_boundary_covectors",
                            lambda m, count, rng, delta: fan)
    rep = er.lopatinski_margin(constant_medium, sample_count=n)
    twins = bd.RootCore(constant_medium, *(a[[first, second]] for a in fan))
    assert twins.product[0] == twins.product[1] == rep.min_normalized
    assert rep.n_glancing_skipped >= block
    assert rep.argmin.x.tobytes() == e[0].tobytes()
    assert _scan_outcome(er.lopatinski_margin, constant_medium, n, 0,
                         ()) == _scan_outcome(ref.lopatinski_margin,
                                              constant_medium, n, 0, ())


def test_streamed_scan_memory_does_not_grow_with_samples(media_dir):
    # 68 MB of traced allocations in one pass; the (n, 3) samples remain
    m = er.load_medium(media_dir / "potential_stress.json")
    er.lopatinski_margin(m, sample_count=10)    # the class check, memoized
    tracemalloc.start()
    try:
        er.lopatinski_margin(m, sample_count=200_000, seed=404)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
