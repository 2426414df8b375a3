"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a `[criterion NN] ...: PASS/FAIL` line; run with
``pytest tests/test_acceptance.py -s`` to see them all.
"""

import csv
import dataclasses
import time
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest
from scipy.special import erfc

from stripesim.channel import (TdlParams, free_space_gain, los_channel,
                               tap_powers, tdl_channel)
from stripesim.cli import main as cli_main
from stripesim.components import (AmplifierParams, DacParams, IqParams,
                                  LinearElementParams, OscillatorParams,
                                  combine, dac_process, iq_modem_process,
                                  linear_element_process, oscillator_phasor,
                                  split)
from stripesim.config import (AntennaConfig, ComponentBank, EnvironmentConfig,
                              LinearElementSpec, StripeLayout, StripeNode,
                              SubThzConfig, WaveformConfig)
from stripesim.dataset import generate_synthetic, read_dataset, write_dataset
from stripesim.stripe import build_stripe, calibrate_gains, make_grid, run_link
from stripesim.touchstone import (interpolate_s21, parse_touchstone,
                                  response_to_spectrum, to_impulse_response)
from stripesim.waveform import (SubcarrierGrid, TimeWaveform, extract_symbols,
                                map_qam, synthesize_symbols)

from conftest import s2p_from_taps


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {title}: FAIL")
        raise
    print(f"[criterion {number:02d}] {title}: PASS")


def _qfunc(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


def _env(n_rus, *, q, bw=3e9, n_antennas=1, ue=(3.0, 2.0, 1.5), spacing=0.5):
    nodes = tuple([StripeNode("central_unit", (0.1, 3.0, 2.8))] +
                  [StripeNode("radio_unit", (0.6 + spacing * i, 3.0, 2.8))
                   for i in range(n_rus)])
    return EnvironmentConfig(
        room=(10.0, 6.0, 3.0),
        stripe_config=StripeLayout(n_stripes=1, n_rus=n_rus,
                                   inter_ru_spacing=spacing),
        radio_stripes=(nodes,), ue_positions=(ue,),
        central_unit_fiber_length=2.0,
        sub_thz=SubThzConfig(fc=157.75e9, bw=bw, num_subcarriers=q),
        antenna=AntennaConfig(n_antennas=n_antennas))


def test_criterion_01_loopback_purity():
    with criterion(1, "loopback purity (ideal chain, identity channel)"):
        started = time.monotonic()
        env = _env(2, q=4096)
        bank = ComponentBank()
        for order in (4, 16, 64):
            wf = WaveformConfig(n_ofdm_symbols=2, qam_order=order,
                                oversampling_factor=1, cp_length=32,
                                pilot_spacing=8, pilot_mode="scattered",
                                tx_power=0.0)
            res = run_link(env, wf, bank, "identity", 0, 0, 1,
                           direction="dl", seed=order)
            assert res.metrics.ber == 0.0, f"QAM-{order} BER {res.metrics.ber}"
            assert res.metrics.nmse_db <= -100.0
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_02_awgn_calibration():
    with criterion(2, "AWGN SNDR calibration and QPSK BER vs theory"):
        started = time.monotonic()
        env = _env(2, q=4096)
        bank = ComponentBank()
        wf = WaveformConfig(n_ofdm_symbols=140, qam_order=4,
                            oversampling_factor=1, cp_length=16,
                            pilot_spacing=8, pilot_mode="scattered",
                            tx_power=0.0)
        res = run_link(env, wf, bank, "identity", 0, 0, 0, direction="dl",
                       seed=2, ota_snr_db=20.0)
        n_bits = res.metrics.n_bits
        assert n_bits >= 1_000_000
        assert abs(res.metrics.sndr_db - 20.0) <= 0.2, res.metrics.sndr_db
        # at 20 dB the theory predicts essentially zero errors
        p20 = _qfunc(np.sqrt(2.0 * 10 ** ((20.0 - 10 * np.log10(2)) / 10)))
        assert abs(res.metrics.ber * n_bits - n_bits * p20) \
            <= 3 * np.sqrt(n_bits * p20 * (1 - p20)) + 1e-9
        # discriminating point: Eb/N0 = 6 dB
        snr_db = 6.0 + 10 * np.log10(2.0)
        res6 = run_link(env, wf, bank, "identity", 0, 0, 0, direction="dl",
                        seed=3, ota_snr_db=snr_db)
        p6 = _qfunc(np.sqrt(2.0 * 10 ** (6.0 / 10)))
        errors = res6.metrics.ber * n_bits
        assert abs(errors - n_bits * p6) <= 3 * np.sqrt(n_bits * p6 * (1 - p6)), \
            f"{errors} errors vs {n_bits * p6:.0f} expected"
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_03_tdl_statistics():
    with criterion(3, "TDL tap powers, normalization, subcarrier energy"):
        lam = tap_powers(8, 0.5)
        assert abs(lam.sum() - 1.0) < 1e-12
        grid = SubcarrierGrid(157.75e9, 3e9, 64, 1)
        params = TdlParams(n_taps=8, beta=0.5)
        rng = np.random.default_rng(33)
        n_target = 100_000
        taps_acc = np.zeros(8)
        sub_acc = np.zeros(64)
        done = 0
        while done < n_target:
            real = tdl_channel(grid, params, 10, 10, rng)  # 100 pairs
            g_t = np.fft.ifft(np.transpose(real.h, (1, 2, 0)), axis=-1)[:, :, :8]
            taps_acc += np.sum(np.abs(g_t) ** 2, axis=(0, 1))
            sub_acc += np.sum(np.abs(real.h) ** 2, axis=(1, 2))
            done += 100
        emp_taps = taps_acc / done
        emp_sub = sub_acc / done
        np.testing.assert_allclose(emp_taps, lam, rtol=0.02)
        np.testing.assert_allclose(emp_sub, 1.0, rtol=0.02)


def test_criterion_04_los_friis_exactness():
    with criterion(4, "LoS magnitude = sqrt(free-space gain), spot value"):
        grid = SubcarrierGrid(157.75e9, 3e9, 256, 1)
        tx = [(0.0, 0.0, 1.0)]
        rx = [(1.7, 0.9, 1.4)]
        real = los_channel(grid, tx, rx)
        d = float(np.linalg.norm(np.asarray(rx[0]) - np.asarray(tx[0])))
        expected = np.sqrt(free_space_gain(d, grid.frequencies()))
        np.testing.assert_allclose(np.abs(real.h[:, 0, 0]), expected, rtol=1e-14)
        # spot: 1 m at 157.75 GHz against a 40-digit oracle
        mpmath.mp.dps = 40
        oracle_db = float(10 * mpmath.log10(
            (mpmath.mpf("299792458") / (4 * mpmath.pi * mpmath.mpf("157.75e9"))) ** 2))
        got_db = 10 * np.log10(free_space_gain(1.0, 157.75e9))
        assert abs(got_db - oracle_db) < 1e-9
        assert abs(got_db - (-76.40)) <= 0.01


def test_criterion_05_fd_td_equivalence():
    with criterion(5, "frequency vs time application of one s2p response"):
        rng = np.random.default_rng(55)
        q, os, cp = 512, 2, 32
        grid = SubcarrierGrid(157.75e9, 2e9, q, os)
        taps = (rng.standard_normal(12) + 1j * rng.standard_normal(12)) * 0.25
        net = parse_touchstone(s2p_from_taps(taps, grid.fc, grid.sample_rate,
                                             n_points=grid.n_fft))
        sym = map_qam(rng.integers(0, 2, q * 3 * 4), 16).reshape(q, 3)
        x = synthesize_symbols(sym, grid, cp)
        fd = LinearElementParams(model="s2p_filter", domain="frequency",
                                 response=interpolate_s21(net, grid))
        y_fd = linear_element_process(sym, fd)
        ir = to_impulse_response(interpolate_s21(net, grid.expanded()), cp * os)
        td = LinearElementParams(model="s2p_filter", domain="time", impulse=ir)
        y_wave = linear_element_process(x, td)
        y_td = extract_symbols(y_wave, grid, cp, 3)
        nmse_db = 10 * np.log10(np.sum(np.abs(y_td - y_fd) ** 2)
                                / np.sum(np.abs(y_fd) ** 2))
        assert nmse_db < -60.0, f"NMSE {nmse_db:.1f} dB"


def test_criterion_06_touchstone_fidelity():
    with criterion(6, "RI/MA/DB equivalence and IDFT/DFT round trip"):
        rng = np.random.default_rng(66)
        freqs = np.linspace(150e9, 165e9, 32)
        mags = rng.uniform(0.05, 1.5, 32)
        angs = rng.uniform(-179.0, 179.0, 32)
        vals = mags * np.exp(1j * np.deg2rad(angs))

        def render(fmt):
            lines = [f"# Hz S {fmt} R 50"]
            for f, v, m, a in zip(freqs, vals, mags, angs):
                if fmt == "RI":
                    fields = [v.real, v.imag] * 4
                elif fmt == "MA":
                    fields = [m, a] * 4
                else:
                    fields = [20 * np.log10(m), a] * 4
                lines.append(" ".join([repr(float(f))]
                                      + [repr(float(x)) for x in fields]))
            return "\n".join(lines)

        nets = {fmt: parse_touchstone(render(fmt)) for fmt in ("RI", "MA", "DB")}
        for fmt in ("MA", "DB"):
            np.testing.assert_allclose(nets[fmt].s21, nets["RI"].s21,
                                       rtol=1e-9, atol=0)
        grid = SubcarrierGrid(157.75e9, 3e9, 1024, 1)
        fr = interpolate_s21(nets["RI"], grid)
        ir = to_impulse_response(fr, 1024)
        back = response_to_spectrum(ir, 1024)
        assert np.max(np.abs(back - fr.h)) < 1e-10


def test_criterion_07_quantizer_law():
    with criterion(7, "8-bit uniform quantizer SQNR"):
        rng = np.random.default_rng(77)
        n = 1_000_000
        samples = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        x = TimeWaveform(samples, 3e9)
        y = dac_process(x.samples, DacParams(mode="quantize", bits=8, clip_amplitude=1.0))
        err = y - x.samples
        sqnr = 10 * np.log10(x.power / np.mean(np.abs(err) ** 2))
        assert abs(sqnr - 48.16) <= 0.3, f"SQNR {sqnr:.3f} dB"


def test_criterion_08_iq_image_rejection():
    with criterion(8, "IQ imbalance image-rejection ratio at 2 degrees"):
        n, k = 8192, 129
        tone = np.exp(2j * np.pi * k * np.arange(n) / n)
        params = IqParams(gain_mismatch=1.0, phase_mismatch=np.deg2rad(2.0))
        y = iq_modem_process(tone, params, np.zeros(n))
        spec = np.fft.fft(y) / n
        irr_db = 20 * np.log10(abs(spec[k]) / abs(spec[-k]))
        assert abs(irr_db - 35.16) <= 0.05, f"IRR {irr_db:.3f} dB"


def test_criterion_09_cfo_bin_shift():
    with criterion(9, "CFO of one subcarrier spacing shifts one bin"):
        q, os, cp = 256, 2, 16
        grid = SubcarrierGrid(157.75e9, 3e9, q, os)
        sym = np.zeros((q, 2), complex)
        sym[100, :] = 1.0
        x = synthesize_symbols(sym, grid, cp)
        phases = oscillator_phasor(
            x.size, OscillatorParams(mode="cfo", cfo_hz=grid.delta_f),
            grid.sample_rate)
        back = extract_symbols(x * np.exp(1j * phases), grid, cp, 2)
        power = np.abs(back) ** 2
        total = power.sum(axis=0)
        assert np.all(power[101, :] / total > 0.999)
        leakage = np.delete(power, 101, axis=0).max(axis=0) / power[101, :]
        assert np.all(10 * np.log10(leakage) < -40.0)


def test_criterion_10_splitter_combiner_identity():
    with criterion(10, "combine(split(x, N)) = sqrt(N) x"):
        rng = np.random.default_rng(10)
        x = TimeWaveform(rng.standard_normal(256) + 1j * rng.standard_normal(256),
                         3e9)
        for n in (1, 2, 4, 8):
            y = combine(split(x.samples, n))
            np.testing.assert_allclose(y, np.sqrt(n) * x.samples,
                                       rtol=1e-14, atol=1e-15)


def test_criterion_11_calibration():
    with criterion(11, "booster calibration against a 10 dB/stage budget"):
        env = _env(6, q=256)
        wf = WaveformConfig(n_ofdm_symbols=2, qam_order=4,
                            oversampling_factor=2, cp_length=16,
                            pilot_spacing=8, pilot_mode="scattered")
        bank = dataclasses.replace(
            ComponentBank(),
            fiber=LinearElementSpec(model="fixed_damping", loss_db=10.0))
        grid = make_grid(env, wf)
        top = build_stripe(env, bank, 0, grid, wf)
        result = calibrate_gains(top, target_power_dbm=-10.0, max_gain_db=20.0)
        np.testing.assert_allclose(result.gains_db, 10.0, atol=0.01)
        np.testing.assert_allclose(result.output_powers_dbm, -10.0, atol=0.1)
        # independent re-measurement: propagate the calibrated stripe in
        # linear mode and read the booster-output powers from the taps
        from stripesim.stripe import propagate_downlink
        top2 = top.with_gains(result.gains_db)
        ref_sym = map_qam(np.random.default_rng(0).integers(0, 2, 2 * 256 * 2),
                          4).reshape(256, 2)
        ref = TimeWaveform(synthesize_symbols(ref_sym, grid, wf.cp_length),
                           grid.sample_rate)
        bins = extract_symbols(ref.samples, grid, wf.cp_length, 2)
        ref = ref.with_samples(ref.samples * np.sqrt(
            1e-4 / np.mean(np.abs(bins[:, 1]) ** 2)))  # -10 dBm passband
        _, taps, _ = propagate_downlink(top2, ref, 5, [0.0], seed=0,
                                        record_taps=True, linear_only=True)
        out_dbm = []
        for label, _, x_out in taps:
            if "booster" in label:
                b = extract_symbols(x_out, grid, wf.cp_length, 2)
                out_dbm.append(10 * np.log10(
                    np.mean(np.abs(b[:, 1]) ** 2) / 1e-3))
        assert len(out_dbm) == 5
        np.testing.assert_allclose(out_dbm, -10.0, atol=0.1)


def test_criterion_12_stagewise_degradation():
    with criterion(12, "monotone compression and scatter across 5 boosters"):
        env = _env(6, q=256)
        wf = WaveformConfig(n_ofdm_symbols=4, qam_order=16,
                            oversampling_factor=2, cp_length=16,
                            pilot_spacing=8, pilot_mode="scattered",
                            tx_power=27.0)
        booster = AmplifierParams(gain_db=2.0, mode="tanh", sat_amplitude=1.0,
                                  nf_db=30.0, bandwidth=3e9)
        bank = dataclasses.replace(ComponentBank(), boost_amplifier=booster)
        res = run_link(env, wf, bank, "identity", 0, 0, 5, direction="dl",
                       seed=12, record_taps=True)
        stages = [(lbl, xi, xo) for lbl, xi, xo in res.stage_taps
                  if "booster" in lbl]
        assert len(stages) == 5
        x0 = np.abs(stages[0][1])
        small = x0 < np.quantile(x0, 0.05)
        big = x0 > np.quantile(x0, 0.95)
        edges = np.quantile(x0, np.linspace(0, 1, 21))
        which = np.clip(np.searchsorted(edges, x0) - 1, 0, 19)
        comp, scatter = [], []
        for _, _, x_out in stages:
            y = np.abs(x_out)
            slope = np.mean(y[small]) / np.mean(x0[small])
            comp.append(np.mean(y[big]) / (slope * np.mean(x0[big])))
            scatter.append(np.sqrt(np.mean([np.var(y[which == b])
                                            for b in range(20)])))
        assert all(b < a for a, b in zip(comp[:-1], comp[1:])), comp
        assert all(b >= a for a, b in zip(scatter[:-1], scatter[1:])), scatter


ENV_13 = """\
room: {x: 10.0, y: 6.0, z: 3.0}
stripe_config: {n_stripes: 1, n_rus: 10, inter_ru_spacing: 0.5}
radio_stripes:
  - - {kind: central_unit, position: [0.1, 3.0, 2.8]}
%s
ue_positions:
  - [2.3, 2.0, 1.5]
sub_thz: {fc: 157.75e9, bw: 100.0e6, num_subcarriers: 1024}
antenna: {n_antennas: 1}
central_unit_fiber_length: 2.0
""" % "\n".join(f"    - {{kind: radio_unit, position: [{0.6 + 0.5 * i}, 3.0, 2.8]}}"
                for i in range(10))

WF_13 = """\
waveform_type: cp-ofdm
n_ofdm_symbols: 4
qam_order: 16
oversampling_factor: 1
cp_length: 16
pilot_spacing: 8
pilot_mode: scattered
tx_power: 10.0
"""

COMP_13 = """\
boost_amplifier: {model: ideal}
antenna_amplifier: {model: ideal}
fiber: {model: ideal}
coupler: {model: ideal}
dac: {model: ideal}
oscillator: {model: ideal}
iq_modem: {}
receiver: {nf_db: 5.0}
"""


def test_criterion_13_ru_selection_heatmap(tmp_path):
    with criterion(13, "RU sweep: best NMSE at the geometrically nearest RU"):
        started = time.monotonic()
        env_p = tmp_path / "env.yaml"
        wf_p = tmp_path / "wf.yaml"
        comp_p = tmp_path / "comp.yaml"
        env_p.write_text(ENV_13)
        wf_p.write_text(WF_13)
        comp_p.write_text(COMP_13)
        out = tmp_path / "sweep"
        code = cli_main(["sweep-ru", "--env", str(env_p), "--waveform", str(wf_p),
                         "--components", str(comp_p), "--channel", "los",
                         "--direction", "ul", "--seed", "13", "--out", str(out)])
        assert code == 0
        with open(out / "heatmap.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["ru_id", "stripe_id", "nmse_cu", "sndr_cu", "ber"]
        assert len(rows) == 11
        nmse = np.array([float(r[2]) for r in rows[1:]])
        ue = np.array([2.3, 2.0, 1.5])
        ru_xyz = np.array([[0.6 + 0.5 * i, 3.0, 2.8] for i in range(10)])
        nearest = int(np.argmin(np.linalg.norm(ru_xyz - ue, axis=1)))
        assert int(np.argmin(nmse)) == nearest, (np.argmin(nmse), nearest)
        elapsed = time.monotonic() - started
        assert elapsed < 300.0, f"took {elapsed:.1f} s"


def test_criterion_14_dataset_round_trip(tmp_path):
    with criterion(14, "CFR1 dataset path equals direct model path"):
        env = _env(3, q=512, n_antennas=2)
        wf = WaveformConfig(n_ofdm_symbols=4, qam_order=16,
                            oversampling_factor=1, cp_length=16,
                            pilot_spacing=8, pilot_mode="scattered")
        grid = SubcarrierGrid(env.sub_thz.fc, env.sub_thz.bw, 512, 1)
        ds = generate_synthetic(env, grid, model="los", n_tx=2, n_rx=1)
        write_dataset(ds, tmp_path)
        # write/read bit-exactness
        back = read_dataset(tmp_path).to_memory()
        for ue in ds.ues:
            stored = ds.channels[ue.ue_id].astype(np.complex64)
            np.testing.assert_array_equal(back.channels[ue.ue_id],
                                          stored.astype(np.complex128))
        bank = ComponentBank()
        reader = read_dataset(tmp_path)
        via_model = run_link(env, wf, bank, "los", 0, 0, 1, direction="dl",
                             seed=14)
        via_data = run_link(env, wf, bank, reader, 0, 0, 1, direction="dl",
                            seed=14)
        num = np.sum(np.abs(via_data.rx_symbols - via_model.rx_symbols) ** 2)
        den = np.sum(np.abs(via_model.rx_symbols) ** 2)
        nmse_db = 10 * np.log10(num / den)
        assert nmse_db < -120.0, f"paths differ at {nmse_db:.1f} dB"


def test_criterion_15_cli_determinism(tmp_path):
    with criterion(15, "byte-identical CSVs across repeated invocations"):
        env_p = tmp_path / "env.yaml"
        wf_p = tmp_path / "wf.yaml"
        comp_p = tmp_path / "comp.yaml"
        env_p.write_text(ENV_13.replace("n_rus: 10", "n_rus: 3")
                         .replace("num_subcarriers: 1024", "num_subcarriers: 256"))
        # trim the stripe to 3 RUs
        lines = [ln for ln in env_p.read_text().splitlines()
                 if "radio_unit" not in ln or float(ln.split("[")[1].split(",")[0]) < 2.0]
        env_p.write_text("\n".join(lines) + "\n")
        wf_p.write_text(WF_13)
        comp_p.write_text(COMP_13)
        base = ["--env", str(env_p), "--waveform", str(wf_p),
                "--components", str(comp_p), "--channel", "los",
                "--seed", "15"]
        # single runs
        assert cli_main(["run", *base, "--ru", "1",
                         "--out", str(tmp_path / "r1")]) == 0
        assert cli_main(["run", *base, "--ru", "1",
                         "--out", str(tmp_path / "r2")]) == 0
        assert ((tmp_path / "r1" / "metrics.csv").read_bytes()
                == (tmp_path / "r2" / "metrics.csv").read_bytes())
        # sweeps, serial and parallel
        assert cli_main(["sweep-ru", *base, "--direction", "ul",
                         "--out", str(tmp_path / "s1")]) == 0
        assert cli_main(["sweep-ru", *base, "--direction", "ul", "--jobs", "3",
                         "--out", str(tmp_path / "s2")]) == 0
        assert ((tmp_path / "s1" / "heatmap.csv").read_bytes()
                == (tmp_path / "s2" / "heatmap.csv").read_bytes())
