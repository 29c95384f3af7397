"""Configuration parsing, validation, and object construction."""

import numpy as np
import pytest

import ancsim.config
from ancsim import AutonomousGenerator, HeldWaveform, _pcg64, from_second_order_bank
from ancsim.config import ConfigError, SimConfig, parse_config_text, read_config


def test_parse_lines_comments_and_whitespace():
    text = """
    # leading comment
    sim.h = 0.5

    ; alt comment style
    sim.L=4
      adapt.mu =  0.2
    """
    out = parse_config_text(text)
    assert out == {"sim.h": "0.5", "sim.L": "4", "adapt.mu": "0.2"}


def test_parse_last_key_wins():
    out = parse_config_text("sim.h = 1\nsim.h = 2\n")
    assert out["sim.h"] == "2"


def test_parse_reports_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config_text("sim.h = 1\nnot a pair\n")
    assert "line 2" in str(err.value)


def test_defaults_are_benchmark_setup():
    config = SimConfig()
    assert config.h == 1.0
    assert config.L == 8
    assert config.T == 100.0
    assert config.n_steps == 100
    assert config.n_taps == 8
    assert config.mu == 0.1
    assert config.zeta == 0.1
    assert len(config.mu_list) == 20
    assert config.secondary().nstates == 9
    assert config.primary().nstates == 10
    assert config.threshold == 10.0


def from_text(text: str) -> SimConfig:
    """The config of ``key = value`` text, as a config file's."""
    return SimConfig.from_mapping(parse_config_text(text))


def test_from_text_full_round():
    text = """
    sim.h = 0.5
    sim.L = 2
    sim.T = 5
    sim.seed = 7
    filter.taps = 3
    adapt.mu = 0.05
    adapt.mu_list = 0.1, 0.2, 0.3
    adapt.eps_threshold = 0.25
    plant.zeta = 0.2
    plant.f.poles = 2.0
    plant.f.gains = 1.0
    plant.f.frequencies = 1.5
    plant.p.poles = 1.0, 3.0
    plant.p.gains = 0.5, 0.25
    plant.p.frequencies = 1.0, 2.0
    plant.p.dampings = 0.3, 0.4
    noise.amplitudes = 1.0, 2.0
    noise.frequencies = 0.5, 1.5
    noise.decay_rates = 0.1, 0.1
    noise.phases = 0.0, 1.0
    sweep.threshold = 4.0
    run.divergence_cutoff = 1e6
    output.dir = results
    """
    config = from_text(text)
    assert config.h == 0.5 and config.L == 2 and config.T == 5.0
    assert config.n_steps == 10
    assert config.mu_list == (0.1, 0.2, 0.3)
    assert config.p_dampings == (0.3, 0.4)
    assert config.noise_phases == (0.0, 1.0)
    assert config.out_dir == "results"
    assert config.secondary().nstates == 3
    assert config.primary().nstates == 6


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        from_text("sim.step = 1\n")
    assert "sim.step" in str(err.value)


@pytest.mark.parametrize(
    "line,key",
    [
        ("sim.h = 0", "sim.h"),
        ("sim.h = nope", "sim.h"),
        ("sim.L = 0", "sim.L"),
        ("sim.T = -3", "sim.T"),
        ("sim.T = 100.37", "sim.T"),
        ("sim.seed = -1", "sim.seed"),
        ("filter.taps = 0", "filter.taps"),
        ("adapt.mu = -0.5", "adapt.mu"),
        ("adapt.mu_list = 0.1, -0.2", "adapt.mu_list"),
        ("adapt.eps_threshold = 0", "adapt.eps_threshold"),
        ("plant.zeta = 0", "plant.zeta"),
        ("plant.f.gains = 1.0, 2.0", "plant.f.gains"),
        ("plant.f.poles = -2.0", "plant.f"),
        ("plant.p.dampings = 0.1", "plant.p.dampings"),
        ("noise.frequencies = 1.0", "noise.frequencies"),
        ("noise.decay_rates = 0.0, 0.1, 0.1, 0.1", "noise.decay_rates"),
        ("noise.phases = 1.0", "noise.phases"),
        ("sweep.threshold = 0", "sweep.threshold"),
        ("run.divergence_cutoff = 0", "run.divergence_cutoff"),
        ("sim.T = inf", "sim.T"),
        ("sim.h = inf", "sim.h"),
        ("adapt.mu = nan", "adapt.mu"),
        ("adapt.mu = inf", "adapt.mu"),
        ("adapt.mu_list = 0.1, nan", "adapt.mu_list"),
        ("plant.zeta = inf", "plant.zeta"),
        ("plant.zeta = 1e-300", "plant.f"),
        ("noise.amplitudes = 0.5, nan, 2.0, 2.0", "noise.amplitudes"),
        ("noise.frequencies = 1.0, 2.6, nan, 4.8", "noise.frequencies"),
        ("noise.decay_rates = nan, 0.01, 0.01, 0.01", "noise.decay_rates"),
        ("noise.phases = 0.0, 0.0, 0.0, nan", "noise.phases"),
        ("plant.f.gains = nan, 1, 1, 1", "plant.f.gains"),
        ("plant.f.frequencies = nan, 1, 1, 1", "plant.f.frequencies"),
        ("plant.f.poles = nan", "plant.f.poles"),
        ("plant.f.dampings = 0.1, nan, 0.1, 0.1", "plant.f.dampings"),
        ("plant.p.gains = 0.078, 0.078, inf, 0.078", "plant.p.gains"),
        ("plant.p.frequencies = 1.2, 2.4, 3.6, nan", "plant.p.frequencies"),
        ("plant.p.poles = 1.2, inf", "plant.p.poles"),
        ("plant.p.dampings = nan, 0.1, 0.1, 0.1", "plant.p.dampings"),
        ("sim.L = 2.5", "sim.L"),
        ("noise.frequencies = 1.0, -2.6, 3.6, 4.8", "noise.frequencies"),
        ("output.dir =", "output.dir"),
    ],
)
def test_field_validation_names_the_key(line, key):
    with pytest.raises(ConfigError) as err:
        from_text(line + "\n")
    assert str(err.value).startswith(key + ":")


def test_overrides_and_frozen():
    config = SimConfig()
    shorter = config.with_overrides(T=10.0, mu=0.2)
    assert shorter.T == 10.0 and shorter.mu == 0.2
    assert config.T == 100.0
    with pytest.raises(Exception):
        config.mu = 0.3


@pytest.mark.parametrize("overrides", [dict(T=10.0), dict(zeta=0.2)])
def test_overrides_validate_and_rebuild_plants(overrides, monkeypatch):
    """An override validates the new config and builds its two plants, like a new config."""
    config = SimConfig()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return from_second_order_bank(*args, **kwargs)

    monkeypatch.setattr(ancsim.config, "from_second_order_bank", counting)
    new = config.with_overrides(**overrides)
    assert len(calls) == 2
    assert new == SimConfig(**overrides)
    assert new.secondary() is not config.secondary()
    assert np.array_equal(new.secondary().A, SimConfig(**overrides).secondary().A)
    with pytest.raises(ConfigError, match="sim.T"):
        config.with_overrides(T=-1.0)
    with pytest.raises(TypeError):
        config.with_overrides(no_such_field=1)


def test_generator_phases_seeded_and_reproducible():
    a = SimConfig().make_generator()
    b = SimConfig().make_generator()
    assert isinstance(a, AutonomousGenerator)
    assert np.all(a.x0 == b.x0)
    c = SimConfig().with_overrides(seed=99).make_generator()
    assert not np.all(a.x0 == c.x0)


SEEDS_PAST_WORDS = [2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 3, 10**30, 2**128 + 5, 10**40]


def test_default_phases_are_numpy_default_rng_draws():
    """The in-package draw is ``default_rng(seed).uniform(0, 2 pi, k)`` bit for
    bit: every seed below 3000 and seeds of two to five 32-bit words (past the
    four-word pool), for one to eight phases."""
    for seed in [*range(3000), *SEEDS_PAST_WORDS]:
        for k in range(1, 9):
            want = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, k)
            assert np.array(_pcg64.uniform(seed, 0.0, 2.0 * np.pi, k)).tobytes() == want.tobytes(), (seed, k)


@pytest.mark.parametrize("seed", [0, 1234, 10**30])
def test_generator_phases_equal_numpy_draws(seed):
    config = SimConfig().with_overrides(seed=seed)
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, len(config.noise_amplitudes))
    want = AutonomousGenerator.damped_sinusoids(config.noise_amplitudes, config.noise_frequencies,
                                                config.noise_decay_rates, phases)
    got = config.make_generator()
    assert got.x0.tobytes() == want.x0.tobytes() and got.A.tobytes() == want.A.tobytes()


def test_generator_explicit_phases():
    config = SimConfig().with_overrides(noise_phases=(0.0, 0.0, 0.0, 0.0))
    gen = config.make_generator()
    # cos-phase components start at their amplitudes
    want = np.array(config.noise_amplitudes)
    assert np.allclose(gen.x0[0::2], want, atol=0.0)
    assert np.allclose(gen.x0[1::2], 0.0, atol=0.0)


def test_waveform_source(tmp_path):
    path = tmp_path / "wave.txt"
    config = SimConfig().with_overrides(T=2.0, L=4)
    np.savetxt(path, np.arange(8, dtype=float))
    gen = config.with_overrides(waveform_path=str(path)).make_generator()
    assert isinstance(gen, HeldWaveform)
    assert len(gen) == 8
    assert gen.dt == config.dt


def test_waveform_too_short(tmp_path):
    path = tmp_path / "wave.txt"
    np.savetxt(path, np.arange(7, dtype=float))
    config = SimConfig().with_overrides(T=2.0, L=4, waveform_path=str(path))
    with pytest.raises(ConfigError) as err:
        config.make_generator()
    assert "noise.waveform" in str(err.value)


def test_waveform_non_finite_sample_names_the_key(tmp_path):
    path = tmp_path / "wave.txt"
    path.write_text("0.5\nnan\n" + "0.0\n" * 6)
    config = SimConfig().with_overrides(T=2.0, L=4, waveform_path=str(path))
    with pytest.raises(ConfigError) as err:
        config.make_generator()
    assert str(err.value).startswith("noise.waveform:")


def test_waveform_unparsable_file_names_the_key(tmp_path):
    path = tmp_path / "wave.txt"
    path.write_text("0.5\nnot a number\n" + "0.0\n" * 6)
    config = SimConfig().with_overrides(T=2.0, L=4, waveform_path=str(path))
    with pytest.raises(ConfigError, match="^noise.waveform: cannot parse"):
        config.make_generator()


def test_read_config_is_the_files_mapping(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("# comment\nsim.L = 2\noutput.dir = res  # kept\n")
    assert read_config(str(path)) == {"sim.L": "2", "output.dir": "res  # kept"}
    assert SimConfig.from_file(str(path)) == SimConfig.from_mapping(read_config(str(path)))
    with pytest.raises(ConfigError, match="^config: cannot read"):
        read_config(str(tmp_path / "missing.cfg"))


def test_waveform_missing_file():
    config = SimConfig().with_overrides(waveform_path="/nonexistent/wave.txt")
    with pytest.raises(ConfigError):
        config.make_generator()
