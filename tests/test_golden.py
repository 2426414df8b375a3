"""SHA-256 digests of the CLI's CSV outputs on a stripe with every
impairment on: a noisy tanh booster, a quantizing DAC, an AR(1)
oscillator with innovation, IQ imbalance with a DC offset, a 3-tap s2p
fiber (in the time domain each segment delays by its node spacing over
group_velocity), and a receiver noise figure, in both fiber domains.

Outputs depend on (configs, seed) alone, so a change that keeps results
keeps every digest here bit for bit. A change that alters results on
purpose records new digests and says so. The digests were recorded with
numpy 2.4 on x86-64; another numpy build may round FFTs differently.
"""

import hashlib

import pytest

from stripesim.cli import main

from conftest import s2p_from_taps

COMPONENTS = """\
boost_amplifier: {model: tanh, gain_db: 3.0, sat_amplitude: 0.5, nf_db: 10.0,
                  bandwidth: 3.0e9}
antenna_amplifier: {model: ideal, gain_db: 2.0, nf_db: 8.0, bandwidth: 3.0e9}
fiber: {model: s2p_filter, file: fiber.s2p, domain: %s, taps: 8,
        group_velocity: 2.0e8}
coupler: {model: fixed_damping, loss_db: 3.0}
dac: {model: quantize, bits: 10, clip_amplitude: 1.0}
oscillator: {model: ar1, ar_rho: 0.99, innovation_std: 0.01, initial_phase: 0.1}
iq_modem: {gain_mismatch: 1.05, phase_mismatch: 0.02, dc_offset: [0.001, -0.002]}
calibration: {target_power: 0.0, max_gain: 30.0}
receiver: {nf_db: 7.0}
"""

# The identity channel keeps the over-the-air hop out of the link budget,
# so the metrics show the hardware impairments (SNDR 11-21 dB).
DL = ["run", "--channel", "identity", "--direction", "dl", "--ru", "2"]
UL = ["run", "--channel", "identity", "--direction", "ul", "--ru", "1"]
TAPS = ["taps/*.csv", "am_am.csv"]

# name -> (command line before the config flags, output files digested)
COMMANDS = {
    "run-dl-ru2": (DL, ["metrics.csv"]),
    "run-dl-ru2-calibrate": ([*DL, "--calibrate"], ["metrics.csv"]),
    "run-ul-ru1": (UL, ["metrics.csv"]),
    "run-ul-ru1-calibrate": ([*UL, "--calibrate"], ["metrics.csv"]),
    "sweep-ru": (["sweep-ru", "--channel", "identity", "--jobs", "1"], ["heatmap.csv"]),
    "calibrate": (["calibrate"], ["gains.csv"]),
    "run-dl-ru2-taps": ([*DL, "--taps"], TAPS),
    "run-ul-ru1-taps": ([*UL, "--taps"], TAPS),
    "run-dl-ru2-los-channel": (["run", "--channel", "los", "--direction", "dl",
                                "--ru", "2", "--dump-channel"], ["channel.csv"]),
    # the random channel models, each realization dumped with the metrics
    **{f"run-{direction}-ru{ru}-{name}": (
        ["run", "--channel", channel, "--direction", direction, "--ru", ru,
         "--dump-channel"], ["metrics.csv", "channel.csv"])
       for name, channel in (("rayleigh", "rayleigh"), ("tdl-0.3-4", "tdl:0.3:4"))
       for direction, ru in (("dl", "2"), ("ul", "1"))},
}

# the LoS channel does not depend on the fiber domain
LOS_CHANNEL = "bac8be364dbd787c2bee511407aeccc7237b8693244de88c1e02d09cc69462e3"

DIGESTS = {
    "frequency": {
        "run-dl-ru2":
            "6bd4b281c890e872056635b53115b7cf44ccf6ccd042185b1658d7fa2d1e1008",
        "run-dl-ru2-calibrate":
            "693b3f0f51bb05a34a6397f53c3f2825fdc02b5d4d576611ef072b45a6a4dc44",
        "run-ul-ru1":
            "14ca7077fbb83d706d78cde8eb7ad4e80cc54fad5a95fef0eb678de375a1e3f8",
        "run-ul-ru1-calibrate":
            "3c3f5bbb330690378cd2386096ed96598e98737a5247406d37565be52b5cb85a",
        "sweep-ru":
            "89404a3847604f861e4f070b83628881137160f66a23311365d237461c2676fe",
        "calibrate":
            "8a4bcfe2808b38635c0bcda6026005319045b5ed026d586ffb9bf77de632c114",
        "run-dl-ru2-taps":
            "ab7cee86b2508474c65e1bc5fa38794d589e25c54e3d9d9e28052a658eda894a",
        "run-ul-ru1-taps":
            "358ea57115e1a4e58467b5c1d89c61cb2537e8eb2c4bac1ce46413bf4d6c8e6c",
        "run-dl-ru2-los-channel": LOS_CHANNEL,
        "run-dl-ru2-rayleigh":
            "42209020fe65e86764687d37ab669b9c01526aecb8eaf35c0101f2a62d583f33",
        "run-ul-ru1-rayleigh":
            "aa5bd2561d953da4ca2019c3d3bbe645231aca59fa758ec1f28db635c7e2d2c2",
        "run-dl-ru2-tdl-0.3-4":
            "f56af5f64fe13f8140761d348533cb9520706a103922e7666f4dd9e008eb8520",
        "run-ul-ru1-tdl-0.3-4":
            "d0774b441d0713ab27710dd9a4887e03921f9db85f204376836ce5a8097ba13a",
    },
    "time": {
        "run-dl-ru2":
            "9d92ef3025aa8f41db5e141ebe90dea77aef5b23a4ec96d1f537526618bd409e",
        "run-dl-ru2-calibrate":
            "339c8d6411fa832c026c26672eff71a91cbc6e73b8c1a8e491843479116091d2",
        "run-ul-ru1":
            "b1bb064a434d5b0c73f005c288a2fcc1e1f91f852c38bfa3bd8077da0c42dec1",
        "run-ul-ru1-calibrate":
            "a180286e60ee56685e47d93400fdd5cf2bd106cbc248845671e7d45f368684fe",
        "sweep-ru":
            "0697952479a30e957393428fe0c497f11a8be4c68e64fecebf31018e006fd3e7",
        "calibrate":
            "4c2c4c56cbe2fc607b6da134829e58e52be252db3d0894a27b663759b91ec567",
        "run-dl-ru2-taps":
            "9b8b311b51ac1e3726a1a68916d9e1c59c27421892e8c8055245594ed0ed1029",
        "run-ul-ru1-taps":
            "5ec4e85762fa6dfd267bd27e0a57b81af475e822eb12dbae90bea4c592e95cda",
        "run-dl-ru2-los-channel": LOS_CHANNEL,
        "run-dl-ru2-rayleigh":
            "74d87927747186261c0c0de32e1adfb0042b5a0dfab90d764f9aed802f053f5c",
        "run-ul-ru1-rayleigh":
            "efaf98ccd5078d82874f42847df41ed57168cd3b485bc099f85e747bb34d0e69",
        "run-dl-ru2-tdl-0.3-4":
            "d436567daf503d1d4f4c2326e2c0b9e59be19de2b7598661b732fdc0911dfbbb",
        "run-ul-ru1-tdl-0.3-4":
            "6503efa388f17d82d2bcbff59dd02d795f91335ae0017a312d6cb67f077f4f58",
    },
}


def _digest(out_dir, patterns) -> str:
    """One SHA-256 over the names and bytes of the matched files."""
    h = hashlib.sha256()
    for pattern in patterns:
        paths = sorted(out_dir.glob(pattern))
        assert paths, pattern
        for path in paths:
            h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("domain", ["frequency", "time"])
def test_cli_outputs_match_recorded_digests(domain, config_tree, tmp_path):
    configs = config_tree["components"].parent
    # on the run's grid: 256 subcarriers, 2x oversampling, 6 GS/s
    (configs / "fiber.s2p").write_text(
        s2p_from_taps([0.8, 0.15j, 0.05], 157.75e9, 6e9, n_points=512))
    config_tree["components"].write_text(COMPONENTS % domain)
    flags = ["--env", config_tree["env"], "--waveform", config_tree["waveform"],
             "--components", config_tree["components"], "--seed", "5"]
    got = {}
    for name, (argv, patterns) in COMMANDS.items():
        out = tmp_path / name
        assert main([str(a) for a in [*argv, *flags, "--out", out]]) == 0, name
        got[name] = _digest(out, patterns)
    assert got == DIGESTS[domain]


# Other grids than the example's: QAM 4, 64 and 256 on a 1x-oversampled
# grid with no cyclic prefix and block pilots, in both directions, with
# every impairment on (frequency-domain fiber). The taps pin the OFDM
# waveforms; metrics.csv pins the demapped bits through the BER.
OTHER_GRID_WF = """\
waveform_type: cp-ofdm
n_ofdm_symbols: 4
qam_order: %d
oversampling_factor: 1
cp_length: 0
pilot_spacing: 8
pilot_mode: block
tx_power: 0.0
"""

OTHER_GRID_DIGESTS = {
    "dl-qam4":
        "c4e9c40a9ba42d6596edcf79b1fd86d6141d519e954a99eafd145c173d7076bb",
    "ul-qam4":
        "390c0aa454058f60070b08e72c03423f6be646c938567d1a5a6714efc972422c",
    "dl-qam64":
        "03d48774b47e37775a9fb70bcb0bc6100fabd8237179d76789f428f3702be1b9",
    "ul-qam64":
        "1b34223802deaa868654e484137239848f59f40d786be23b62defc77f359afff",
    "dl-qam256":
        "4eb267586d8616257f6815cb9eb92376538de081cbb3c37480015fdb8c8b00e7",
    "ul-qam256":
        "01c7951dbd4c3d62710207231c5236b431bf07bcd33165acadf01b234f69de9f",
}


@pytest.mark.parametrize("direction", ["dl", "ul"])
@pytest.mark.parametrize("order", [4, 64, 256])
def test_other_grids_match_recorded_digests(order, direction, config_tree, tmp_path):
    configs = config_tree["components"].parent
    (configs / "fiber.s2p").write_text(
        s2p_from_taps([0.8, 0.15j, 0.05], 157.75e9, 6e9, n_points=512))
    config_tree["components"].write_text(COMPONENTS % "frequency")
    config_tree["waveform"].write_text(OTHER_GRID_WF % order)
    out = tmp_path / "out"
    argv = [*(DL if direction == "dl" else UL), "--taps",
            "--env", config_tree["env"], "--waveform", config_tree["waveform"],
            "--components", config_tree["components"], "--seed", "5", "--out", out]
    assert main([str(a) for a in argv]) == 0
    assert _digest(out, [*TAPS, "metrics.csv"]) == OTHER_GRID_DIGESTS[f"{direction}-qam{order}"]
