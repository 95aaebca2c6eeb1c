"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and never loosened at runtime.
"""

import json
import time
from itertools import product
from dataclasses import replace

import numpy as np

from swapsim import biphoton as bp
from swapsim import cli
from swapsim import devices as dv
from swapsim import experiments as ex
from swapsim import netlist as nl
from swapsim import qcore as qc
from swapsim import tomography as tm
from swapsim._memo import MEMOS
from swapsim.config import ChipConfig, ExperimentConfig, SourceConfig, dump_config

IDEAL_SRC = """\
chip swap {
  ports T, B;
  pcnot c1 (T, B);
  mcnot r1 (T);
  pcnot c2 (T, B);
}
"""


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_01_ideal_gate_identity():
    with Timer() as t:
        chip = nl.compile_netlist(nl.parse(IDEAL_SRC))
        # a unitary chip's superoperator is U (x) conj(U), which carries no
        # global phase
        u = dv.ideal_swap_unitary()
        dist = float(np.linalg.norm(chip.superoperator - np.kron(u, u.conj())))
        probs = ex.exact_truth_table(chip)
        want = np.zeros((4, 4))
        want[3, 0] = want[1, 1] = want[2, 2] = want[0, 3] = 1.0
        table_ok = np.max(np.abs(probs - want)) <= 1e-12
    _report(1, "ideal cascade equals (XX).SWAP and truth table is exact",
            dist <= 1e-10 and table_ok and t.elapsed < 1.0,
            f"frob={dist:.2e} runtime={t.elapsed:.2f}s")


def _calibrated(n_trials=100, **over):
    return ExperimentConfig.measured_chip(n_trials=n_trials, rng_seed=2024, **over)


def test_criterion_02_truth_table_bracket():
    with Timer() as t:
        cfg = _calibrated()
        probs = ex.exact_truth_table(cfg.chip(0))
        # aim the configured pair rate at ~1e5 detected counts total
        t_setting = cfg.integration_time_s / 16.0
        rate = 1e5 / (t_setting * probs.sum())
        cfg = replace(cfg, pair_rate_hz=rate, background_rate_hz=0.0)
        r = ex.run_truth_table(cfg)
        f_exact = r.payload["fidelity_exact"]
        stderr = r.payload["fidelity_mc_stderr"]
        total = r.payload["total_counts_mean"]
        in_bracket = 0.95 <= f_exact <= 0.995
        stderr_ok = stderr <= 0.004
    _report(2, "calibrated truth-table fidelity bracket and shot-noise stderr",
            in_bracket and stderr_ok and t.elapsed < 10.0,
            f"F={f_exact:.4f} stderr={stderr:.5f} counts~{total:.0f} "
            f"runtime={t.elapsed:.1f}s")


def _random_cptp(rng, dim, n_kraus):
    g = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, _ = np.linalg.qr(g)
    return [q[i * dim:(i + 1) * dim, :] for i in range(n_kraus)]


def _chi_of_kraus(kraus, n):
    d = 2**n
    chi = np.zeros((4**n, 4**n), dtype=complex)
    for k in kraus:
        c = np.array([np.trace(e @ k) / d for e in qc.pauli_operators(n)])
        chi += np.outer(c, c.conj())
    return chi / np.trace(chi).real


def _tomo_inputs(n):
    if n == 1:
        vecs = [qc.ket2(l) for l in ("H", "V", "D", "R")]
        return [np.outer(v, v.conj()) for v in vecs]
    singles = [np.outer(qc.ket2(l), qc.ket2(l).conj()) for l in ("0", "1", "+", "i")]
    return [np.kron(a, b) for a in singles for b in singles]


def test_criterion_03_tomography_roundtrip():
    with Timer() as t:
        rng = np.random.default_rng(303)
        worst = 1.0
        all_psd = True
        for n, cases in ((1, 200), (2, 50)):
            ins = _tomo_inputs(n)
            for _ in range(cases):
                kraus = _random_cptp(rng, 2**n, rng.integers(1, 5))
                outs = [sum(k @ r @ k.conj().T for k in kraus) for r in ins]
                chi = tm.process_tomo_stack(ins, np.array(outs)[None], n)[0]
                truth = _chi_of_kraus(kraus, n)
                num = float(np.trace(chi @ truth).real)
                den = float(np.sqrt(np.trace(chi @ chi).real
                                    * np.trace(truth @ truth).real))
                worst = min(worst, num / den)
                if np.linalg.eigvalsh(chi).min() < -1e-10:
                    all_psd = False
    _report(3, "exact process tomography inverts 250 random CPTP channels",
            worst >= 1 - 1e-6 and all_psd and t.elapsed < 60.0,
            f"worst overlap={worst:.2e} runtime={t.elapsed:.1f}s")


def test_criterion_04_swap_chi_structure():
    ins = _tomo_inputs(2)
    u = dv.swap_unitary()  # relabeled-frame ideal chip process
    outs = [u @ r @ u.conj().T for r in ins]
    chi = tm.process_tomo_stack(ins, np.array(outs)[None], 2)[0]
    labels = ["".join(p) for p in product("IXYZ", repeat=2)]  # `pauli_operators` order
    want_block = {"II", "XX", "YY", "ZZ"}
    err = 0.0
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            expect = 0.25 if (li in want_block and lj in want_block) else 0.0
            err = max(err, abs(chi[i, j] - expect))
    rng = np.random.default_rng(404)
    purity_err = 0.0
    for _ in range(10):
        g, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        purity_err = max(purity_err,
                         abs(tm.process_purity_stack(tm.chi_from_unitary(g)) - 1.0))
    _report(4, "ideal SWAP chi sits on the {II,XX,YY,ZZ} block at 1/4",
            err <= 1e-10 and purity_err <= 1e-10,
            f"max entry err={err:.2e} max purity err={purity_err:.2e}")


def test_criterion_05_single_qubit_process_brackets():
    with Timer() as t:
        r = ex.run_process_tomography(_calibrated(n_trials=1))
        per = r.payload["per_spatial_input"]
        f_ok = all(0.92 <= v["process_fidelity"] <= 0.99 for v in per.values())
        p_ok = all(0.88 <= v["process_purity"] <= 0.97 for v in per.values())
    detail = " ".join(f"{k}:F={v['process_fidelity']:.3f}/P={v['process_purity']:.3f}"
                      for k, v in per.items())
    _report(5, "per-input process fidelity and purity brackets",
            f_ok and p_ok and t.elapsed < 10.0, detail)


def test_criterion_06_fringe_coherence():
    # (a) ideal chain: fitted V = 1 +/- 1e-6
    ideal_cfg = ExperimentConfig(n_trials=1, rng_seed=6)
    r = ex.run_fringe_scan(ideal_cfg)
    v_ideal = r.payload["visibility_exact_fit"]
    ok_a = abs(v_ideal - 1.0) <= 1e-6
    # (b) background calibrated so raw reads 98.7% -> subtracted >= 99.0%
    cfg = _calibrated(n_trials=20, pair_rate_hz=50000.0)
    base = ex.run_fringe_scan(cfg)
    v_true = base.payload["visibility_exact"]
    mean_p = float(np.mean(base.payload["exact_probabilities"]))
    bg_rate = cfg.pair_rate_hz * mean_p * (v_true / 0.987 - 1.0)
    r2 = ex.run_fringe_scan(replace(cfg, background_rate_hz=bg_rate))
    raw = r2.payload["visibility_raw_mean"]
    sub = r2.payload["visibility_subtracted_mean"]
    ok_b = abs(raw - 0.987) <= 0.004 and sub >= 0.99
    # (c) injected-visibility recovery at 1e4 counts/point over 100 seeds
    phis = np.linspace(0, 2 * np.pi, 25)
    v_inj = 0.987
    worst = 0.0
    for seed in range(100):
        gen = np.random.default_rng(np.random.SeedSequence([606, seed]))
        clean = 1e4 * (1 + v_inj * np.cos(phis))
        fit = tm.fringe_fit_stack(phis, gen.poisson(clean)[None])
        worst = max(worst, abs(fit.visibility_raw[0] - v_inj))
    ok_c = worst <= 0.005
    _report(6, "fringe: ideal V=1, raw/subtracted pair, fit recovery",
            ok_a and ok_b and ok_c,
            f"V_ideal={v_ideal:.8f} raw={raw:.4f} sub={sub:.4f} "
            f"worst fit err={worst:.4f}")


def test_criterion_07_hom():
    # (a) source-only dip floor
    cfg = _calibrated(n_trials=1)
    src_cfg = replace(cfg, hom_input="source", fpc_mode="ideal")
    overlap = bp.exchange_overlap(ex._hom_joint(src_cfg))
    tc_configured = src_cfg.source.coherence_time_ps
    floor = bp.hom_dip(overlap, 0.0, tc_configured)
    ok_a = floor <= 1e-9
    # (b) fitted coherence time within 1% of configured 3.15 ps
    delays = np.linspace(-12, 12, 49)
    fit = bp.hom_fit_stack(delays, 1e6 * bp.hom_dip(overlap, delays, tc_configured)[None])
    tc = float(fit.coherence_time_ps[0])
    ok_b = abs(tc - 3.15) / 3.15 <= 0.01
    # (c) post-chip subtracted visibility bracket
    r = ex.run_hom_scan(replace(cfg, hom_input="TV_BH", n_trials=1))
    sub = r.payload["visibility_subtracted_exact"]
    ok_c = 0.93 <= sub <= 0.99
    _report(7, "HOM: perfect source dip, coherence time, post-chip visibility",
            ok_a and ok_b and ok_c,
            f"floor={floor:.1e} tc={tc:.4f}ps sub={sub:.4f}")


def _bell_fidelities(cfg):
    """Exact fidelity of each Bell label after chips 0 and 1 and the link."""
    labels = list(bp.BellLabel)
    link = ex._bell_link(cfg, cfg.chip(0), cfg.chip(1))
    rho, _ = ex._bell_polarization_stack(cfg, labels, link)
    return qc.pure_fidelity_stack(rho, np.array([bp.bell_state_vector(l) for l in labels]))


def test_criterion_08_bell_distribution():
    with Timer() as t:
        ideal_cfg = ExperimentConfig(n_trials=1, rng_seed=8,
                                     source=SourceConfig(bell_visibility=1.0))
        worst_ideal = float(_bell_fidelities(ideal_cfg).min())
        avg = float(np.mean(_bell_fidelities(_calibrated(n_trials=1))))
    _report(8, "Bell distribution: ideal unity, calibrated average bracket",
            worst_ideal >= 1 - 1e-9 and 0.88 <= avg <= 0.95 and t.elapsed < 30.0,
            f"ideal min={worst_ideal:.10f} calibrated avg={avg:.4f} "
            f"runtime={t.elapsed:.1f}s")


def test_criterion_09_error_budget():
    # near unity at 35 dB and zero imbalance
    chip35 = ChipConfig(pcnot_extinction_db=35.0, mcnot_extinction_db=35.0,
                        mcnot_loss_db_t=1.0, facet_loss_db_h=3.0,
                        facet_loss_db_v=3.0)
    f35 = ex.truth_table_fidelity_exact(ChipConfig.build(chip35))
    ok_a = f35 >= 0.995
    # marginal cost of the 0.9 dB coupling difference alone
    base = ChipConfig(pcnot_extinction_db=18.0, mcnot_extinction_db=20.0)
    cfg = ExperimentConfig(chips=(base,), n_trials=1)
    r = ex.run_error_budget(cfg, {"loss_imbalance_db": [0.0, 0.45]})
    grid = {g["value"]: g["truth_table_fidelity"] for g in r.payload["grid"]}
    cost_pp = (grid[0.0] - grid[0.45]) * 100.0
    ok_b = 0.1 <= cost_pp <= 0.9
    # monotone non-increasing on every swept axis
    sweep = {
        "loss_imbalance_db": [0.0, 0.2, 0.45, 0.9],
        "mcnot_loss_db_t": [0.0, 0.5, 1.0, 2.0],
        "facet_xtalk": [0.0, 0.05, 0.1],
        "rotation_error_rad": [0.0, 0.05, 0.1],
    }
    r2 = ex.run_error_budget(cfg, sweep)
    by_axis = {}
    for g in r2.payload["grid"]:
        by_axis.setdefault(g["axis"], []).append((g["value"], g["truth_table_fidelity"]))
    mono = True
    for axis, pairs in by_axis.items():
        pairs.sort()
        fids = [f for _, f in pairs]
        mono = mono and all(b <= a + 1e-9 for a, b in zip(fids, fids[1:]))
    _report(9, "error budget: 35 dB near-unity, imbalance cost, monotonicity",
            ok_a and ok_b and mono,
            f"F35={f35:.5f} imbalance cost={cost_pp:.2f}pp monotone={mono}")


def _cold_compile(src):
    # two independent compilations: nothing parsed or compiled is reused
    for cached in MEMOS.values():
        cached.cache_clear()
    return nl.compile_netlist(nl.parse(src))


def test_criterion_10_netlist_tooling():
    try:
        from tests.test_netlist import _corpus
    except ImportError:  # invoked from inside tests/
        from test_netlist import _corpus

    corpus = _corpus()
    ok_corpus = len(corpus) >= 20
    for src in corpus:
        ast = nl.parse(src)
        again = nl.parse(nl.format_netlist(ast))
        ok_corpus = ok_corpus and (again.structure() == ast.structure())
    malformed = {
        "": "expected",
        "chip c { ports T, B; gizmo g (T); }": "unknown-kind",
        "chip c { ports T, B; pcnot a (T, B) extinction=18qB; }": "unknown-unit",
        "chip c { ports T, B; pcnot a (T, B); mcnot a (T); }": "duplicate-instance",
        "chip c { ports T, B; pcnot a (T, X); }": "undeclared-port",
    }
    ok_errors = True
    for src, code in malformed.items():
        try:
            nl.parse(src)
            ok_errors = False
        except nl.ParseError as err:
            ok_errors = ok_errors and err.code == code
            ok_errors = ok_errors and 0 <= err.span.start <= err.span.end <= len(src)
    src = corpus[0]
    a, b = (_cold_compile(src).superoperator for _ in range(2))
    ok_bits = np.array_equal(a, b)
    _report(10, "netlist: corpus round-trip, spanned error codes, determinism",
            ok_corpus and ok_errors and ok_bits,
            f"corpus={len(corpus)} files")


def test_criterion_11_cli_reproducibility(tmp_path):
    cfg = ExperimentConfig.measured_chip(n_trials=5, rng_seed=99)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(dump_config(cfg))
    digests = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = cli.dispatch(["truth-table", "--config", str(cfg_path),
                           "--out", str(out), "--seed", "99"])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        payload_bytes = json.dumps(doc["payload"], sort_keys=True,
                                   separators=(",", ":")).encode()
        digests.append((payload_bytes, doc["payload_sha256"]))
    ok = digests[0] == digests[1]
    _report(11, "CLI reruns produce byte-identical deterministic payloads", ok)
