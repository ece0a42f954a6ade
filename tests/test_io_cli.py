"""Tests for image/directory IO, config parsing, and the command line.

CLI subcommands run in-process through main(argv); error paths must print
one line to stderr and return exit code 1.
"""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from m2mtnet import attribution, cli, lfio, metrics, network, training
from m2mtnet.lftensor import LfTensor

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _lf_dir(tmp_path, name="lf", u=2, v=2, w=8, h=8, maxval=255):
    rng = np.random.default_rng(u * 100 + v)
    lf = LfTensor(rng.random((u, v, w, h, 1)))
    d = tmp_path / name
    lfio.save_lf_dir(lf, d, maxval=maxval)
    return d, lf


class TestPgm:
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_round_trip(self, tmp_path, maxval):
        rng = np.random.default_rng(0)
        img = rng.random((5, 7))
        p = tmp_path / "img.pgm"
        lfio.write_pgm(p, img, maxval)
        back, mv = lfio.read_pgm(p)
        assert mv == maxval
        np.testing.assert_allclose(back / mv, img, atol=0.5 / maxval + 1e-9)

    def test_quantization_is_round_to_nearest(self, tmp_path):
        p = tmp_path / "img.pgm"
        lfio.write_pgm(p, np.array([[0.0, 0.5, 1.0]]), 255)
        back, _ = lfio.read_pgm(p)
        np.testing.assert_array_equal(back, [[0, 128, 255]])

    def test_clips_out_of_range(self, tmp_path):
        p = tmp_path / "img.pgm"
        lfio.write_pgm(p, np.array([[-1.0, 2.0]]), 255)
        back, _ = lfio.read_pgm(p)
        np.testing.assert_array_equal(back, [[0, 255]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, tmp_path, bad):
        p = tmp_path / "img.pgm"
        with pytest.raises(ValueError, match="NaN or infinite"):
            lfio.write_pgm(p, np.array([[0.5, bad]]), 255)
        assert not p.exists()

    def test_sixteen_bit_is_big_endian(self, tmp_path):
        p = tmp_path / "img.pgm"
        lfio.write_pgm(p, np.array([[1.0]]), 65535)
        raw = p.read_bytes()
        assert raw.endswith(b"\xff\xff")
        header_comment = b"P5"
        assert raw.startswith(header_comment)

    def test_header_comments_skipped(self, tmp_path):
        p = tmp_path / "img.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n\x10\x20")
        img, mv = lfio.read_pgm(p)
        np.testing.assert_array_equal(img, [[0x10, 0x20]])

    def test_bad_magic_and_truncation(self, tmp_path):
        p = tmp_path / "img.pgm"
        p.write_bytes(b"P4\n2 1\n255\n\x10\x20")
        with pytest.raises(ValueError):
            lfio.read_pgm(p)
        p.write_bytes(b"P5\n4 4\n255\n\x10")
        with pytest.raises(ValueError, match="truncated"):
            lfio.read_pgm(p)

    @pytest.mark.parametrize(
        "header, field, token",
        [
            (b"-2 1 255", "width", "-2"),
            (b"+2 1 255", "width", "+2"),
            (b"4_0 1 255", "width", "4_0"),
            (b"ab 1 255", "width", "ab"),
            (b"0 1 255", "width", "0"),
            (b"2 -1 255", "height", "-1"),
            (b"2 0 255", "height", "0"),
            (b"2 1 +255", "maxval", "+255"),
        ],
    )
    def test_header_needs_positive_ascii_integers(self, tmp_path, header, field, token):
        p = tmp_path / "img.pgm"
        p.write_bytes(b"P5\n" + header + b"\n" + bytes(64))
        with pytest.raises(ValueError) as e:
            lfio.read_pgm(p)
        assert str(e.value) == f"{p}: header {field} must be a positive integer, got {token!r}"

    def test_ppm_reads_three_channels(self, tmp_path):
        p = tmp_path / "img.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img, mv = lfio.read_ppm(p)
        assert img.shape == (1, 1, 3)
        np.testing.assert_array_equal(img[0, 0], [255, 0, 0])


class TestLfDir:
    def test_round_trip_16bit(self, tmp_path):
        d, lf = _lf_dir(tmp_path, maxval=65535)
        back = lfio.load_lf_dir(d)
        assert back.dims == lf.dims
        np.testing.assert_allclose(back.data, lf.data, atol=1.0 / 65535)

    def test_meta_written(self, tmp_path):
        d, _ = _lf_dir(tmp_path, u=3, v=2)
        meta = (d / "meta.txt").read_text()
        assert "u=3" in meta and "v=2" in meta and "bitdepth=8" in meta

    def test_grid_inferred_without_meta(self, tmp_path):
        d, lf = _lf_dir(tmp_path)
        (d / "meta.txt").unlink()
        back = lfio.load_lf_dir(d)
        assert back.dims == lf.dims

    def test_missing_view_rejected(self, tmp_path):
        d, _ = _lf_dir(tmp_path)
        (d / "view_u1_v0.pgm").unlink()
        with pytest.raises(ValueError, match="missing view"):
            lfio.load_lf_dir(d)

    @pytest.mark.parametrize("twin", ["view_u00_v0.pgm", "view_u0_v0.ppm"])
    def test_two_files_for_one_view_rejected(self, tmp_path, twin):
        d, _ = _lf_dir(tmp_path, w=2, h=2)
        lfio.write_pgm(d / "view_u0_v0.pgm", np.full((2, 2), 0.25), 255)
        if twin.endswith(".ppm"):
            (d / twin).write_bytes(b"P6\n2 2\n255\n" + bytes([255] * 12))
        else:
            lfio.write_pgm(d / twin, np.ones((2, 2)), 255)
        with pytest.raises(ValueError) as e:
            lfio.load_lf_dir(d)
        first, second = sorted(["view_u0_v0.pgm", twin])
        assert str(e.value) == f"{first} and {second} are both view (u=0, v=0) in {d}"

    def test_dim_mismatch_rejected(self, tmp_path):
        d, _ = _lf_dir(tmp_path)
        lfio.write_pgm(d / "view_u0_v0.pgm", np.zeros((3, 3)), 255)
        with pytest.raises(ValueError, match="differ"):
            lfio.load_lf_dir(d)

    @pytest.mark.parametrize("line", ["u=abc", "u=0", "u=-2", "u=+2", "v=1.5", "v=2_0"])
    def test_bad_meta_grid_names_file_and_key(self, tmp_path, line):
        d, _ = _lf_dir(tmp_path)
        key, val = line.split("=")
        (d / "meta.txt").write_text(f"u=2\nv=2\n{line}\n")
        with pytest.raises(ValueError) as e:
            lfio.load_lf_dir(d)
        assert str(e.value) == f"{d / 'meta.txt'}: {key} must be a positive integer, got {val!r}"

    @pytest.mark.parametrize(
        "text, key, said",
        [("u=1\nv=1\n", "u", 1), ("u=2\nv=1\n", "v", 1), ("u=3\n", "u", 3)],
        ids=["both-small", "v-small", "u-alone"],
    )
    def test_meta_grid_must_match_the_files(self, tmp_path, text, key, said):
        d, _ = _lf_dir(tmp_path)
        (d / "meta.txt").write_text(text)
        with pytest.raises(ValueError) as e:
            lfio.load_lf_dir(d)
        assert str(e.value) == f"{d / 'meta.txt'}: {key}={said}, but the view files give {key}=2"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_leaves_no_directory(self, tmp_path, bad):
        data = np.full((2, 2, 3, 3, 1), 0.5)
        data[1, 0, 2, 1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            lfio.save_lf_dir(LfTensor(data), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("maxval", [0, 65536])
    def test_bad_maxval_leaves_no_directory(self, tmp_path, maxval):
        with pytest.raises(ValueError, match=f"maxval {maxval} outside"):
            lfio.save_lf_dir(LfTensor(np.full((1, 1, 2, 2, 1), 0.5)), tmp_path / "out", maxval)
        assert not (tmp_path / "out").exists()

    def test_central_crop(self, tmp_path):
        d, lf = _lf_dir(tmp_path, u=4, v=4)
        back = lfio.load_lf_dir(d, central=2)
        assert (back.u, back.v) == (2, 2)
        np.testing.assert_allclose(
            back.data, lf.data[1:3, 1:3], atol=1.0 / 255
        )

    def test_ppm_views_become_luma(self, tmp_path):
        d = tmp_path / "rgb"
        d.mkdir()
        for uu in range(1):
            for vv in range(1):
                (d / f"view_u{uu}_v{vv}.ppm").write_bytes(
                    b"P6\n1 1\n255\n" + bytes([255, 255, 255])
                )
        lf = lfio.load_lf_dir(d)
        assert lf.dims == (1, 1, 1, 1, 1)
        assert lf.data[0, 0, 0, 0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_orientation_consistent(self, tmp_path):
        # a horizontal gradient in (x) must land on the W axis
        img = np.linspace(0, 1, 6)[None, :] * np.ones((4, 1))
        d = tmp_path / "g"
        d.mkdir()
        lfio.write_pgm(d / "view_u0_v0.pgm", img, 255)
        lf = lfio.load_lf_dir(d)
        assert lf.dims == (1, 1, 6, 4, 1)
        col = lf.data[0, 0, :, 0, 0]
        assert col[0] < col[-1]


class TestConfigFile:
    def test_typed_parsing(self, tmp_path):
        p = tmp_path / "net.cfg"
        p.write_text("# comment\nu=5\nv=5\nc_cor=7\narch=m2m\n\n")
        assert cli._load_config(p) == network.NetConfig(u=5, v=5, c_cor=7, arch="m2m")

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "net.cfg"
        p.write_text("depth=9\n")
        with pytest.raises(ValueError, match="unknown config key"):
            cli._load_config(p)

    def test_bad_value_and_missing_equals(self, tmp_path):
        p = tmp_path / "net.cfg"
        p.write_text("arch=o2o\nc=wide\n")
        with pytest.raises(ValueError, match="bad value 'wide' for 'c'"):
            cli._load_config(p)
        p.write_text("just a line\n")
        with pytest.raises(ValueError, match="key=value"):
            cli._load_config(p)

    def test_weight_headers_use_the_same_reader(self):
        pairs = [("u", "3"), ("seed", "0"), ("arch", "o2o")]
        assert network.parse_config(pairs, "h") == network.NetConfig(u=3, seed=0, arch="o2o")
        with pytest.raises(ValueError) as e:
            network.parse_config([("flops_per_mac", "2")], "h")
        assert str(e.value) == "h: unknown config key 'flops_per_mac'"

    @pytest.mark.parametrize("line", ["u=+2", "n2=1_0", "c=\u0664", "seed=-1", "r= 2 2", "c="])
    def test_integers_are_ascii_digits_only(self, tmp_path, capsys, line):
        p = _write_cfg(tmp_path)
        p.write_text(p.read_text() + line + "\n", encoding="utf-8")
        assert cli.main(["params", "--config", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "bad value" in captured.err

    def test_every_netconfig_field_round_trips(self, tmp_path):
        want = network.NetConfig(
            u=3, v=4, c=5, c_cor=7, n1=2, n2=3, r=2, seed=9, arch="o2o",
        )
        defaults = network.NetConfig()
        for f in fields(network.NetConfig):
            assert getattr(want, f.name) != getattr(defaults, f.name), f.name
        p = tmp_path / "net.cfg"
        p.write_text("".join(f"{k}={v}\n" for k, v in want.__dict__.items()))
        assert cli._load_config(p) == want


def _write_cfg(tmp_path, **overrides):
    base = dict(u=2, v=2, c=4, c_cor=6, n1=1, n2=1, r=2, seed=0)
    base.update(overrides)
    p = tmp_path / "net.cfg"
    p.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return p


class TestCli:
    def test_init_params_flops(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        weights = tmp_path / "w.m2mw"
        assert cli.main(["init", "--config", str(cfg), "--out-weights", str(weights)]) == 0
        assert weights.exists()
        assert cli.main(["params", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "total params:" in out and "per-block params:" in out
        assert cli.main(["flops", "--config", str(cfg), "--patch", "8"]) == 0
        assert "total flops @ 8x8" in capsys.readouterr().out

    def test_sr_and_metrics_pipeline(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        weights = tmp_path / "w.m2mw"
        cli.main(["init", "--config", str(cfg), "--out-weights", str(weights)])
        d, lf = _lf_dir(tmp_path)
        out_dir = tmp_path / "sr"
        rc = cli.main(
            ["sr", "--weights", str(weights), "--input", str(d), "--output", str(out_dir)]
        )
        assert rc == 0
        sr = lfio.load_lf_dir(out_dir)
        assert sr.dims == (2, 2, 16, 16, 1)
        rc = cli.main(["metrics", "--a", str(out_dir), "--b", str(out_dir)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "psnr_mean=inf" in text

    def test_sr_ensemble_flag(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        weights = tmp_path / "w.m2mw"
        cli.main(["init", "--config", str(cfg), "--out-weights", str(weights)])
        d, _ = _lf_dir(tmp_path)
        out_dir = tmp_path / "sre"
        rc = cli.main(
            [
                "sr", "--weights", str(weights), "--input", str(d),
                "--output", str(out_dir), "--ensemble",
            ]
        )
        assert rc == 0
        assert lfio.load_lf_dir(out_dir).dims == (2, 2, 16, 16, 1)

    def test_sr_scale_cross_check(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        weights = tmp_path / "w.m2mw"
        cli.main(["init", "--config", str(cfg), "--out-weights", str(weights)])
        d, _ = _lf_dir(tmp_path)
        rc = cli.main(
            [
                "sr", "--weights", str(weights), "--input", str(d),
                "--output", str(tmp_path / "x"), "--scale", "4",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_lam_writes_outputs(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        weights = tmp_path / "w.m2mw"
        cli.main(["init", "--config", str(cfg), "--out-weights", str(weights)])
        d, _ = _lf_dir(tmp_path)
        map_file = tmp_path / "map.lft"
        heat = tmp_path / "heat.pgm"
        rc = cli.main(
            [
                "lam", "--weights", str(weights), "--input", str(d),
                "--window", "8,8,4", "--steps", "3", "--sigma", "2.0",
                "--out-map", str(map_file), "--out-heatmap", str(heat),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "di=" in out and "views_with_support=4/4" in out
        # .npy content at exactly the named path, no suffix appended
        assert sorted(p.name for p in tmp_path.glob("map.lft*")) == ["map.lft"]
        amap = np.load(map_file, allow_pickle=False)
        # the map attributes over the input field, not the output
        assert amap.dtype == np.float64 and amap.shape == (2, 2, 8, 8)
        net = network.net_from_file(weights, 2, 2)
        lam_cfg = attribution.LamConfig(window=(8, 8, 4), steps=3, sigma=2.0)
        assert np.array_equal(amap, attribution.lam(net, lfio.load_lf_dir(d), lam_cfg).map)
        img, _ = lfio.read_pgm(heat)
        assert img.shape == (8 * 2, 8 * 2)

    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    def test_lam_json_is_the_last_line(self, tmp_path, capsys, arch):
        cfg = _write_cfg(tmp_path, arch=arch)
        weights = tmp_path / "w.m2mw"
        cli.main(["init", "--config", str(cfg), "--out-weights", str(weights)])
        d, _ = _lf_dir(tmp_path)
        capsys.readouterr()
        rc = cli.main(
            [
                "lam", "--weights", str(weights), "--input", str(d), "--window", "8,8,4",
                "--steps", "3", "--sigma", "2.0", "--sai", "0,1", "--mode", "standard",
                "--out-map", str(tmp_path / "map.lft"), "--json",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [f"wrote {tmp_path / 'map.lft'}"]
        rep = json.loads(lines[-1])
        assert set(rep) == {"di", "gini", "degenerate", "views_with_support", "u", "v", "steps", "mode"}
        assert (rep["u"], rep["v"], rep["steps"], rep["mode"]) == (2, 2, 3, "standard")
        assert rep["degenerate"] is False
        assert rep["views_with_support"] == (4 if arch == "m2m" else 1)
        assert rep["di"] == pytest.approx((1 - rep["gini"]) * 100.0)

    @staticmethod
    def _metrics_json(capsys, a, b) -> dict:
        """`metrics --json` of a against b: its one stdout line, parsed with
        a parse_constant that refuses Infinity and NaN."""

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        capsys.readouterr()
        assert cli.main(["metrics", "--a", str(a), "--b", str(b), "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        return json.loads(lines[-1], parse_constant=refuse)

    def test_metrics_json_keeps_full_precision(self, tmp_path, capsys):
        a, _ = _lf_dir(tmp_path, "a", u=2, v=3)
        b = tmp_path / "b"
        lf = lfio.load_lf_dir(a)
        lfio.save_lf_dir(LfTensor(np.clip(lf.data + 0.02 * np.arange(6).reshape(2, 3, 1, 1, 1), 0, 1)), b)
        rep = self._metrics_json(capsys, a, b)
        assert set(rep) == {"psnr_mean", "ssim_mean", "mse", "u", "v", "psnr", "ssim"}
        want = metrics.lf_metrics(lfio.load_lf_dir(a), lfio.load_lf_dir(b))
        assert (rep["u"], rep["v"]) == (2, 3)
        # the identical (0, 0) view has no finite PSNR
        assert rep["psnr"][0][0] is None and rep["psnr_mean"] is None
        assert rep["psnr"][1][2] == want.psnr_grid[1, 2]
        assert rep["ssim"] == want.ssim_grid.tolist() and rep["ssim_mean"] == want.ssim_mean
        assert rep["mse"] == want.mse

    def test_metrics_json_identical_views(self, tmp_path, capsys):
        d, _ = _lf_dir(tmp_path)
        rep = self._metrics_json(capsys, d, d)
        assert rep["psnr_mean"] is None and rep["psnr"] == [[None, None], [None, None]]
        assert rep["ssim_mean"] == 1.0 and rep["mse"] == 0.0

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sigma", "inf", "sigma must be finite and >= 0, got inf"),
            ("--sigma", "nan", "sigma must be finite and >= 0, got nan"),
            ("--window", "1,2,x", "--window needs 3 comma-separated integers, got '1,2,x'"),
            ("--sai", "1,z", "--sai needs 2 comma-separated integers, got '1,z'"),
            # int() would take each of these; only ASCII digits are integers here
            ("--window", "\u0663,3,3", "--window needs 3 comma-separated integers, got '\u0663,3,3'"),
            ("--window", "1_0,8, +4", "--window needs 3 comma-separated integers, got '1_0,8, +4'"),
        ],
        ids=["sigma-inf", "sigma-nan", "window", "sai", "window-arabic-indic-digit", "window-underscore-sign"],
    )
    def test_lam_bad_option_one_line(self, tmp_path, capsys, flag, value, message):
        cfg = _write_cfg(tmp_path)
        weights = tmp_path / "w.m2mw"
        cli.main(["init", "--config", str(cfg), "--out-weights", str(weights)])
        d, _ = _lf_dir(tmp_path)
        capsys.readouterr()
        args = {"--window": "8,8,4", "--sigma": "2.0", flag: value}
        argv = ["lam", "--weights", str(weights), "--input", str(d), "--steps", "2"]
        rc = cli.main(argv + [a for kv in args.items() for a in kv])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--window", "14,8,4", "window (14, 8, 4) exceeds the 16x16 view"),
            ("--sai", "2,0", "sai (2, 0) outside the 2x2 grid"),
        ],
        ids=["window", "sai"],
    )
    def test_lam_bad_window_or_sai_before_any_forward(self, tmp_path, capsys, monkeypatch, flag, value, message):
        cfg = _write_cfg(tmp_path)
        weights = tmp_path / "w.m2mw"
        cli.main(["init", "--config", str(cfg), "--out-weights", str(weights)])
        d, _ = _lf_dir(tmp_path)
        capsys.readouterr()

        def no_forward(*args, **kwargs):
            raise AssertionError("a forward ran before --window and --sai were checked")

        monkeypatch.setattr(network._SrNet, "forward_var", no_forward)
        args = {"--window": "8,8,4", flag: value}
        argv = ["lam", "--weights", str(weights), "--input", str(d), "--steps", "2"]
        rc = cli.main(argv + [a for kv in args.items() for a in kv])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_view_with_negative_header_width_exits_one(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        weights = tmp_path / "w.m2mw"
        cli.main(["init", "--config", str(cfg), "--out-weights", str(weights)])
        d, _ = _lf_dir(tmp_path, w=4, h=4)
        view = d / "view_u0_v0.pgm"
        view.write_bytes(b"P5\n-4 4\n255\n" + bytes(16))
        capsys.readouterr()
        rc = cli.main(["sr", "--weights", str(weights), "--input", str(d), "--output", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {view}: header width must be a positive integer, got '-4'\n"

    @pytest.mark.parametrize("maxval, sample", [(100, 255), (255, 0), (1000, 1001)])
    def test_sample_above_maxval_exits_one(self, tmp_path, capsys, maxval, sample):
        d, _ = _lf_dir(tmp_path, w=2, h=2)
        view = d / "view_u1_v0.pgm"
        dt = ">u2" if maxval > 255 else "u1"
        view.write_bytes(f"P5\n2 2\n{maxval}\n".encode() + np.array([0, 1, 2, sample], dt).tobytes())
        assert cli.main(["metrics", "--a", str(d), "--b", str(d)]) == (0 if sample <= maxval else 1)
        err = capsys.readouterr().err
        assert err == ("" if sample <= maxval else f"error: {view}: sample {sample} above maxval {maxval}\n")

    def test_view_names_take_ascii_digits_only(self, tmp_path, capsys):
        d = tmp_path / "lf"
        d.mkdir()
        lfio.write_pgm(d / "view_u\u0660_v0.pgm", np.zeros((2, 2)))
        assert cli.main(["metrics", "--a", str(d), "--b", str(d)]) == 1
        assert capsys.readouterr().err == f"error: no view_u*_v*.pgm images in {d}\n"

    def test_bad_meta_grid_exits_one(self, tmp_path, capsys):
        d, _ = _lf_dir(tmp_path)
        (d / "meta.txt").write_text("u=abc\nv=2\n")
        assert cli.main(["metrics", "--a", str(d), "--b", str(d)]) == 1
        assert capsys.readouterr().err == f"error: {d / 'meta.txt'}: u must be a positive integer, got 'abc'\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train-toy", "--lr", "nan"], "lr must be finite and > 0, got nan"),
            (["train-toy", "--lr", "inf"], "lr must be finite and > 0, got inf"),
            (["init", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["params"], "{cfg}: bad value '-1' for 'seed'"),
            (["gradcheck", "--seed", "-1"], "--seed must be >= 0, got -1"),
        ],
        ids=["train-lr-nan", "train-lr-inf", "init-seed", "params-config-seed", "gradcheck-seed"],
    )
    def test_bad_lr_or_seed_one_line(self, tmp_path, capsys, argv, message):
        cfg = _write_cfg(tmp_path, seed=-1 if argv == ["params"] else 0)
        d, _ = _lf_dir(tmp_path)
        extra = {
            "train-toy": ["--config", str(cfg), "--input", str(d), "--iters", "2", "--out-weights", str(tmp_path / "t.m2mw")],
            "init": ["--config", str(cfg), "--out-weights", str(tmp_path / "i.m2mw")],
            "params": ["--config", str(cfg)],
            "gradcheck": [],
        }[argv[0]]
        assert cli.main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(cfg=cfg)}\n"
        assert captured.out == ""

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "m2mtnet", "flops", "--config", str(cfg), "--patch", "8"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "total flops @ 8x8" in proc.stdout

    def test_train_toy_end_to_end(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        d = tmp_path / "hr"
        rng = np.random.default_rng(2)
        xs = np.linspace(0, 1, 8)
        img = 0.5 + 0.4 * np.sin(2 * np.pi * xs)[:, None] * np.cos(2 * np.pi * xs)[None, :]
        hr = LfTensor(np.broadcast_to(img[None, None, :, :, None], (2, 2, 8, 8, 1)).copy())
        lfio.save_lf_dir(hr, d)
        weights = tmp_path / "trained.m2mw"
        curve_file = tmp_path / "curve.csv"
        rc = cli.main(
            [
                "train-toy", "--config", str(cfg), "--input", str(d),
                "--iters", "5", "--out-weights", str(weights),
                "--out-curve", str(curve_file),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "final/initial loss:" in out
        assert curve_file.read_text().startswith("iter,loss")
        assert network.net_from_file(weights, 2, 2).cfg.c == 4

    def test_train_toy_wrong_grid_one_line(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        d, _ = _lf_dir(tmp_path, u=3, v=2)
        rc = cli.main(["train-toy", "--config", str(cfg), "--input", str(d), "--iters", "2",
                       "--out-weights", str(tmp_path / "t.m2mw")])
        assert rc == 1
        assert capsys.readouterr().err == "error: input grid 3x2 != configured 2x2\n"
        assert not (tmp_path / "t.m2mw").exists()

    def test_gradcheck_passes(self, capsys):
        assert cli.main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 19
        assert "FAIL" not in out

    def test_bad_config_key_exits_one(self, tmp_path, capsys):
        p = tmp_path / "net.cfg"
        p.write_text("width=3\n")
        assert cli.main(["params", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["norm", "out_proj", "ffn", "angular_ffn", "ffn_ratio", "flops_per_mac"])
    def test_removed_config_key_exits_one(self, tmp_path, capsys, key):
        # the transformer sub-block design and the FLOP convention are fixed;
        # their old switches are unknown keys
        p = _write_cfg(tmp_path, **{key: 2 if key in ("ffn_ratio", "flops_per_mac") else "true"})
        assert cli.main(["params", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"unknown config key {key!r}" in err

    @pytest.mark.parametrize(
        "case, fragment",
        [
            ("bad magic", "bad magic b'WRONG'"),
            ("m2mw1 file", "bad magic b'M2MW1'"),
            ("magic only", "truncated inside its header"),
            ("truncated header", "truncated inside its header"),
            ("unknown key", "unknown config key 'depth'"),
            ("bad integer", "bad value '+4' for 'c'"),
            ("zero channels", "u, v, c, c_cor must be >= 1"),
            ("r=3", "upscale factor must be 2 or 4, got 3"),
            ("unknown dtype", "must start dtype=<f4 or dtype=<f8, got 'dtype=>f4'"),
            ("missing field", "must list every NetConfig field once, in order"),
            ("field twice", "must list every NetConfig field once, in order"),
            ("short payload", "payload holds"),
            ("trailing bytes", "payload holds"),
            ("other grid", "weights for a 3x3 grid, input grid is 2x2; wrong --central or grid?"),
        ],
    )
    def test_sr_bad_weight_file_one_line(self, tmp_path, capsys, case, fragment):
        """Each fault of an M2MW2 file (magic, u32 LE header length, key=value
        header, little-endian payload) is one error line, and nothing is written."""
        cfg = network.NetConfig(u=3 if case == "other grid" else 2, v=3 if case == "other grid" else 2,
                                c=4, c_cor=6, n1=1, n2=1, r=2)
        lines = ["dtype=<f4"] + [f"{k}={v}" for k, v in cfg.__dict__.items()]
        payload = b"".join(a.astype("<f4").tobytes() for a in network.build(cfg).params.values())
        edits = {
            "unknown key": lambda ls: ls + ["depth=3"],
            "bad integer": lambda ls: [x.replace("c=4", "c=+4") for x in ls],
            "zero channels": lambda ls: [x.replace("c=4", "c=0") for x in ls],
            "r=3": lambda ls: [x.replace("r=2", "r=3") for x in ls],
            "unknown dtype": lambda ls: ["dtype=>f4"] + ls[1:],
            "missing field": lambda ls: [x for x in ls if not x.startswith("seed=")],
            "field twice": lambda ls: ls + ["seed=0"],
        }
        lines = edits.get(case, lambda ls: ls)(lines)
        header = "".join(x + "\n" for x in lines).encode()
        data = b"M2MW2" + len(header).to_bytes(4, "little") + header + payload
        data = {
            "bad magic": b"WRONG" + data[5:],
            "m2mw1 file": b"M2MW1" + (17).to_bytes(4, "little") + b"head.0.w\tf32\t1\t0\n" + bytes(4),
            "magic only": b"M2MW2",
            "truncated header": data[: 9 + len(header) - 1],
            "short payload": data[:-4],
            "trailing bytes": data + bytes(4),
        }.get(case, data)
        weights = tmp_path / "w.m2mw"
        weights.write_bytes(data)
        d, _ = _lf_dir(tmp_path)
        rc = cli.main(["sr", "--weights", str(weights), "--input", str(d), "--output", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert fragment in err
        assert not (tmp_path / "o").exists()

    def test_lam_non_finite_map_exits_one(self, tmp_path, capsys):
        """A NaN bias makes the map NaN: no JSON, no map file."""
        net = network.build(network.NetConfig(u=2, v=2, c=4, c_cor=6, n1=1, n2=1, r=2))
        net.params["tail.squeeze.b"][:] = np.nan
        weights = tmp_path / "w.m2mw"
        network.save_weights(weights, net)
        d, _ = _lf_dir(tmp_path)
        capsys.readouterr()
        rc = cli.main(
            ["lam", "--weights", str(weights), "--input", str(d), "--window", "8,8,4", "--steps", "3",
             "--json", "--out-map", str(tmp_path / "m.npy")]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "NaN or infinite" in captured.err
        assert not (tmp_path / "m.npy").exists()

    def test_sr_non_finite_output_exits_one(self, tmp_path, capsys):
        """A NaN bias reaches every output sample; no views are written as black."""
        net = network.build(network.NetConfig(u=2, v=2, c=4, c_cor=6, n1=1, n2=1, r=2))
        net.params["tail.squeeze.b"][:] = np.nan
        weights = tmp_path / "w.m2mw"
        network.save_weights(weights, net)
        d, _ = _lf_dir(tmp_path)
        rc = cli.main(
            ["sr", "--weights", str(weights), "--input", str(d), "--output", str(tmp_path / "o")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "NaN or infinite" in err
        assert not (tmp_path / "o").exists()

    def test_sr_bad_maxval_fails_up_front(self, tmp_path, capsys, monkeypatch):
        cfg = _write_cfg(tmp_path)
        weights = tmp_path / "w.m2mw"
        cli.main(["init", "--config", str(cfg), "--out-weights", str(weights)])
        d, _ = _lf_dir(tmp_path)
        capsys.readouterr()

        def no_load(*args, **kwargs):
            raise AssertionError("the input was loaded before --maxval was checked")

        monkeypatch.setattr(lfio, "load_lf_dir", no_load)
        for maxval in ("0", "65536"):
            out_dir = tmp_path / f"o{maxval}"
            rc = cli.main(
                ["sr", "--weights", str(weights), "--input", str(d), "--output", str(out_dir),
                 "--maxval", maxval]
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert err == f"error: maxval {maxval} outside [1, 65535]\n"
            assert not out_dir.exists()

    def test_missing_input_dir_exits_one(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        weights = tmp_path / "w.m2mw"
        cli.main(["init", "--config", str(cfg), "--out-weights", str(weights)])
        rc = cli.main(
            ["sr", "--weights", str(weights), "--input", str(tmp_path / "nope"),
             "--output", str(tmp_path / "o")]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err
