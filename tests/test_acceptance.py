"""End-to-end acceptance checks. Each test prints one CRITERION line."""

import time

import numpy as np

from rpn2 import backbone_equiv as be
from rpn2 import datasets as ds
from rpn2 import fusion as fu
from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.numeric_core import Prng, SparseCoo, matrix_exp


def _report(num, ok, detail):
    print("CRITERION %d: %s %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (num, detail)


# ---------------------------------------------------------------------------
# 1. backbone equivalence over 20 seeds per kind


def test_criterion_1_backbone_equivalence():
    t0 = time.time()
    worst = {}
    ok = True
    for kind in ("cnn", "pool", "rnn", "gnn", "transformer"):
        diffs = []
        for seed in range(20):
            diff, tol = be.run_case(kind, Prng(seed).derive("accept_%s" % kind))
            diffs.append(diff)
            if tol == 0.0:
                ok = ok and diff == 0.0
            else:
                ok = ok and diff < tol
        worst[kind] = max(diffs)
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    detail = ("max diffs cnn %.2e pool %.2e rnn %.2e gnn %.2e transformer %.2e"
              " in %.1fs" % (worst["cnn"], worst["pool"], worst["rnn"],
                             worst["gnn"], worst["transformer"], elapsed))
    _report(1, ok, detail)


# ---------------------------------------------------------------------------
# 2. chain sparsity anchor


def test_criterion_2_chain_sparsity():
    a = itd.chain_structural_matrix(512, "uni", "accumulative", 5)
    sp = SparseCoo.from_dense(a)
    ratio = sp.nnz / float(512 * 512)
    ok = sp.nnz == 3057 and abs(ratio * 100.0 - 1.165) <= 0.02
    _report(2, ok, "nnz %d ratio %.4f%%" % (sp.nnz, ratio * 100.0))


# ---------------------------------------------------------------------------
# 3. packing coverage anchors


def test_criterion_3_packing_coverage():
    plane = gg.GridSpec(256, 256, 1)
    cube = gg.GridSpec(64, 64, 64)

    def cov(grid, shape, strategy):
        return gg.coverage_stats(grid, shape,
                                 gg.PackingSpec(strategy=strategy))["coverage_ratio"]

    sq = cov(plane, gg.Cylinder(16), "sparse_square")
    hexa = cov(plane, gg.Cylinder(16), "sparse_hexagonal")
    cubic = cov(cube, gg.Sphere(8), "sparse_cubic")
    csq = cov(plane, gg.Cylinder(16), "complete_square")
    chex = cov(plane, gg.Cylinder(16), "complete_hexagonal")
    ccub = cov(cube, gg.Sphere(4), "complete_cubic")
    ok = (abs(sq - 0.785) < 0.03 and abs(hexa - 0.907) < 0.03
          and abs(cubic - 0.523) < 0.04
          and csq == 1.0 and chex == 1.0 and ccub == 1.0)
    _report(3, ok, "square %.3f hex %.3f cubic %.3f complete %.1f/%.1f/%.1f"
            % (sq, hexa, cubic, csq, chex, ccub))


# ---------------------------------------------------------------------------
# 4. parameter-count anchors


def test_criterion_4_parameter_counts():
    ok = True
    for n in (2, 4, 8):
        for d_cap in (3, 5, 9):
            for r in (1, 2, 3):
                lorr = rc.ReconciliationSpec("lorr", n=n, D=d_cap, rank=r)
                vera = rc.ReconciliationSpec("vera", n=n, D=d_cap, rank=r)
                ok = ok and rc.param_length(lorr) == (n + d_cap) * r
                ok = ok and rc.param_length(vera) == n + r
    for b in (2, 4, 8):
        for r in (1, 2, 3):
            spec = itd.InterdependenceSpec(itd.LowRankBilinear(b, r))
            ok = ok and itd.param_length(spec) == 2 * b * r
    rejects = True
    for spec in (rc.ReconciliationSpec("lorr", n=4, D=6, rank=2),
                 rc.ReconciliationSpec("vera", n=4, D=6, rank=2)):
        l = rc.param_length(spec)
        for bad in (l - 1, l + 1):
            try:
                rc.reconcile(spec, np.zeros(bad))
                rejects = False
            except ValueError:
                pass
    ok = ok and rejects
    _report(4, ok, "lorr (n+D)r, vera n+r, low-rank bilinear 2br; "
            "off-by-one lengths rejected: %s" % rejects)


# ---------------------------------------------------------------------------
# 5. finite-difference gradient suite


def _fd_worst(model, x, seed=0, coords=None, h=1e-6):
    store = md.init_store(model, seed)
    out, tape, _ = md.model_forward_nodes(x, model, store)
    loss_node = (out * out).sum()
    grads = tape.backward(loss_node)
    g = md._flatten_grads(store, grads)
    base = store.vector.copy()

    def loss_at(vec):
        store.vector[:] = vec
        o = md.model_forward(x, model, store)
        return float(np.sum(o * o))

    idx = range(base.size) if coords is None else coords
    worst = 0.0
    for i in idx:
        up = base.copy()
        up[i] += h
        dn = base.copy()
        dn[i] -= h
        fd = (loss_at(up) - loss_at(dn)) / (2.0 * h)
        rel = abs(fd - g[i]) / max(1.0, abs(fd), abs(g[i]))
        worst = max(worst, rel)
    store.vector[:] = base
    return worst


def test_criterion_5_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(0)
    x4 = rng.standard_normal((4, 3))
    cases = {}

    head = md.HeadConfig(
        m=3, n=3, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("identity", n=3, D=3),
        attr_prior=itd.InterdependenceSpec(itd.Bilinear(4)))
    cases["bilinear"] = _fd_worst(md.ModelConfig([md.LayerConfig([head])]), x4)

    head = md.HeadConfig(
        m=4, n=3, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("identity", n=3, D=4),
        inst_prior=itd.InterdependenceSpec(
            itd.LowRankBilinear(4, 2), axis="instance",
            post_norm="scaled_col_softmax", norm_r=2))
    cases["lowrank_bilinear"] = _fd_worst(
        md.ModelConfig([md.LayerConfig([head])]), rng.standard_normal((5, 4)))

    for method, spec in (
            ("lorr", rc.ReconciliationSpec("lorr", n=4, D=3, rank=2)),
            ("vera", rc.ReconciliationSpec("vera", n=4, D=3, rank=2, seed=3)),
            ("hypernet", rc.ReconciliationSpec("hypernet_lowrank", n=4, D=3,
                                               rank=2, mid=5, input_len=6,
                                               seed=1))):
        head = md.HeadConfig(m=3, n=4, expansion=tf.ExpansionSpec("identity"),
                             reconciliation=spec)
        cases[method] = _fd_worst(md.ModelConfig([md.LayerConfig([head])]), x4)

    h1 = md.HeadConfig(m=3, n=2, expansion=tf.ExpansionSpec("identity"),
                       reconciliation=rc.ReconciliationSpec("identity", n=2, D=3))
    h2 = md.HeadConfig(m=3, n=3, expansion=tf.ExpansionSpec("identity"),
                       reconciliation=rc.ReconciliationSpec("identity", n=3, D=3))
    layer = md.LayerConfig([h1, h2], fu.FusionSpec("concat_linear", target=3))
    cases["concat_linear"] = _fd_worst(md.ModelConfig([layer]), x4)

    l0 = md.HeadConfig(
        m=3, n=5, expansion=tf.ExpansionSpec("hermite", d=2),
        reconciliation=rc.ReconciliationSpec("lorr", n=5, D=6, rank=2),
        remainder="linear", processors={"output": "tanh"},
        inst_prior=itd.InterdependenceSpec(itd.LowRankBilinear(3, 2),
                                           axis="instance",
                                           post_norm="scaled_col_softmax",
                                           norm_r=2))
    l1 = md.HeadConfig(m=5, n=2, expansion=tf.ExpansionSpec("identity"),
                       reconciliation=rc.ReconciliationSpec("vera", n=2, D=5,
                                                            rank=2, seed=5))
    full = md.ModelConfig([md.LayerConfig([l0]), md.LayerConfig([l1])])
    total = md.init_store(full, 0).total()
    coords = np.random.default_rng(1).choice(total, size=20, replace=False)
    cases["full_model"] = _fd_worst(full, rng.standard_normal((6, 3)),
                                    coords=coords.tolist())

    elapsed = time.time() - t0
    worst = max(cases.values())
    ok = worst < 1e-5 and elapsed < 20.0
    _report(5, ok, "worst rel err %.2e over %s in %.1fs"
            % (worst, sorted(cases), elapsed))


# ---------------------------------------------------------------------------
# 6. algebraic identities


def test_criterion_6_algebraic_identities():
    m = 5
    a = itd.chain_structural_matrix(m)
    nilpotent = np.array_equal(np.linalg.matrix_power(a, m), np.zeros((m, m)))

    series = np.zeros((m, m))
    term = np.eye(m)
    fact = 1.0
    for k in range(m):
        series += term / fact
        term = term @ a
        fact *= k + 1
    exp_ok = np.array_equal(itd.chain_structural_matrix(m, variant="exponential"),
                            series)

    rng = np.random.default_rng(7)
    g = itd.Graph(10, [(i, j) for i in range(10) for j in range(i + 1, 10)
                       if rng.random() < 0.3])
    adj = g.adjacency()
    deg = adj.sum(axis=1, keepdims=True)
    a_hat = adj / np.where(deg == 0.0, 1.0, deg)
    ps = np.zeros((10, 10))
    term = np.eye(10)
    for _ in range(2000):
        ps += term
        term = term @ (0.85 * a_hat)
    pr_diff = np.max(np.abs(
        itd.graph_structural_matrix(g, "pagerank", alpha=0.15,
                                    normalization="row") - 0.15 * ps))

    xs = np.linspace(-1.5, 1.5, 11)
    geg = tf.polynomial_values("gegenbauer", xs, 6, alpha=0.5)
    leg = tf.polynomial_values("legendre", xs, 6)
    geg_diff = np.max(np.abs(geg - leg))

    xi = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    he = tf.polynomial_values("hermite", xi, 4)
    he_want = np.stack([xi, xi ** 2 - 1, xi ** 3 - 3 * xi,
                        xi ** 4 - 6 * xi ** 2 + 3], axis=-1)
    fib = tf.polynomial_values("fibonacci", xi, 5)
    fib_want = np.stack([np.ones_like(xi), xi, xi ** 2 + 1, xi ** 3 + 2 * xi,
                         xi ** 4 + 3 * xi ** 2 + 1], axis=-1)
    luc = tf.polynomial_values("lucas", xi, 5)
    luc_want = np.stack([xi, xi ** 2 + 2, xi ** 3 + 3 * xi,
                         xi ** 4 + 4 * xi ** 2 + 2,
                         xi ** 5 + 5 * xi ** 3 + 5 * xi], axis=-1)
    closed = (np.array_equal(he, he_want) and np.array_equal(fib, fib_want)
              and np.array_equal(luc, luc_want))

    ok = (nilpotent and exp_ok and pr_diff < 1e-8 and geg_diff < 1e-10
          and closed)
    _report(6, ok, "A^m=0 %s, exp series %s, pagerank %.1e, "
            "gegenbauer-legendre %.1e, closed forms %s"
            % (nilpotent, exp_ok, pr_diff, geg_diff, closed))


# ---------------------------------------------------------------------------
# 7. incremental selectors


def test_criterion_7_incremental_selectors():
    rng = np.random.default_rng(11)
    m, k = 40, 20
    scales = 1.0 + 0.1 * np.arange(m)

    state = tf.SelectorState(m, "variance", k)
    batches = [rng.standard_normal((64, m)) * scales for _ in range(3)]
    for b in batches:
        state, _, _ = tf.select_features(state, b)
    want_vbar = np.mean([b.var(axis=0) for b in batches], axis=0)
    rule_ok = np.max(np.abs(state.v_bar - want_vbar)) < 1e-12

    state.freeze()
    before_sel = list(state.selected)
    before_vbar = state.v_bar.copy()
    state, _, sel1 = tf.select_features(state, rng.standard_normal((64, m)) * 100)
    state, _, sel2 = tf.select_features(state, rng.standard_normal((64, m)))
    frozen_ok = (sel1 == sel2 == before_sel
                 and np.array_equal(state.v_bar, before_vbar))

    state2 = tf.SelectorState(m, "variance", k)
    sel = None
    for _ in range(5):
        state2, _, sel = tf.select_features(state2,
                                            rng.standard_normal((64, m)) * scales)
    top = set(np.argsort(scales)[-k:].tolist())
    overlap = len(top & set(sel)) / float(k)
    ok = rule_ok and frozen_ok and overlap >= 0.95
    _report(7, ok, "streaming rule %s, frozen idempotence %s, top-k overlap %.2f"
            % (rule_ok, frozen_ok, overlap))


# ---------------------------------------------------------------------------
# 8. random projection distance preservation


def test_criterion_8_random_projection():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((50, 200))
    diffs = x[:, None, :] - x[None, :, :]
    d0 = np.sqrt(np.sum(diffs * diffs, axis=-1))
    iu = np.triu_indices(50, 1)
    fracs = []
    for seed in range(5):
        _, y = tf.reduce_dimension(None, x, "random_projection_gaussian", 64,
                                   prng=Prng(seed).derive("jl"))
        dd = y[:, None, :] - y[None, :, :]
        d1 = np.sqrt(np.sum(dd * dd, axis=-1))
        ratios = d1[iu] / d0[iu]
        fracs.append(float(np.mean((ratios >= 0.65) & (ratios <= 1.35))))
    ok = all(f >= 0.95 for f in fracs)
    _report(8, ok, "in-range fractions %s" % ["%.3f" % f for f in fracs])


# ---------------------------------------------------------------------------
# 9. training sanity on two moons


def _moons_model():
    l0 = md.HeadConfig(m=2, n=8, expansion=tf.ExpansionSpec("hermite", d=2),
                       reconciliation=rc.ReconciliationSpec("lorr", n=8, D=4,
                                                            rank=2),
                       processors={"output": "tanh"})
    l1 = md.HeadConfig(m=8, n=2, expansion=tf.ExpansionSpec("identity"),
                       reconciliation=rc.ReconciliationSpec("lorr", n=2, D=8,
                                                            rank=2))
    return md.ModelConfig([md.LayerConfig([l0]), md.LayerConfig([l1])])


def test_criterion_9_training_sanity():
    x, y = ds.two_moons(200, 0.1, 7)
    model = _moons_model()
    opt = {"kind": "adaptive_moments", "lr": 0.05}
    hist1, store1 = md.train(model, x, y, loss="cross_entropy", optimizer=opt,
                             epochs=500, seed=5)
    hist2, store2 = md.train(model, x, y, loss="cross_entropy", optimizer=opt,
                             epochs=500, seed=5)
    acc = hist1.epochs[-1]["metric"]
    deterministic = np.array_equal(store1.vector, store2.vector)
    before = md.init_store(model, 5).vector.copy()
    _, frozen = md.train(model, x, y, loss="cross_entropy",
                         optimizer={"kind": "sgd", "lr": 0.0}, epochs=20, seed=5)
    lr0_ok = np.array_equal(frozen.vector, before)
    ok = acc >= 0.95 and deterministic and lr0_ok
    _report(9, ok, "accuracy %.3f, deterministic %s, lr=0 bit-identical %s"
            % (acc, deterministic, lr0_ok))


# ---------------------------------------------------------------------------
# 10. diagnostics anchors


def test_criterion_10_diagnostics():
    rng = np.random.default_rng(31)
    b = 9
    x = rng.standard_normal((b, 4))

    ident = md.HeadConfig(
        m=4, n=4, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("constant_eye", n=4, D=4),
        inst_prior=itd.InterdependenceSpec(itd.Identity(b), axis="instance"))
    rep = md.diagnostics(md.ModelConfig([md.LayerConfig([ident])]), x,
                         md.init_store(md.ModelConfig([md.LayerConfig([ident])]),
                                       0))
    rank_ok = rep["layers"][0]["rank"] == b

    chain_spec = itd.InterdependenceSpec(
        itd.ChainStructural(b, "uni", "accumulative", 2), axis="instance")
    chain = md.HeadConfig(
        m=4, n=4, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("constant_eye", n=4, D=4),
        inst_prior=chain_spec)
    model = md.ModelConfig([md.LayerConfig([chain])])
    rep2 = md.diagnostics(model, x, md.init_store(model, 0))
    applied = itd.build_matrix(chain_spec).T
    entry = rep2["layers"][0]
    inf_want = float(np.max(np.sum(np.abs(applied), axis=1)))
    t2i_want = float(np.max(np.sqrt(np.sum((applied @ x) ** 2, axis=1))))
    norms_ok = (abs(entry["norm_infinity"] - inf_want) < 1e-8
                and abs(entry["norm_two_to_infinity_ax"] - t2i_want) < 1e-8
                and entry["nnz"] == int(np.count_nonzero(applied)))
    ok = rank_ok and norms_ok
    _report(10, ok, "identity rank %d == b %d, norm oracles matched %s"
            % (rep["layers"][0]["rank"], b, norms_ok))
