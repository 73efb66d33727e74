import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import flatcurve as fc
from flatcurve import cli

from conftest import SHEAR, image_window


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_json(argv):
    rc, out = run(argv)
    assert rc == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# window generation and round trips


def test_gen_integer_window():
    d = run_json(["gen", "--sequence", "all-integers", "--radius", "3"])
    assert d["mode"] == "exact"
    assert d["radius"] == 3.0
    assert d["translation"] == ["0", "0"]
    assert d["points"][0] == ["0", "0"]
    assert len(d["points"]) == 7


@pytest.mark.parametrize("sequence", ["positive-integers", "gaussian-lattice",
                                      "odd4n13-positive", "integers-plus-minus-i"])
def test_gen_translation_signs_agree_across_modes(sequence):
    # the float shift of a first point on an axis is 0.0, as in exact mode, not -0.0
    signs = []
    for mode in ("exact", "float"):
        rc, out = run(["gen", "--sequence", sequence, "--radius", "6", "--mode", mode])
        assert rc == 0, out
        t = json.loads(out)["translation"]
        signs.append([math.copysign(1.0, float(Fraction(c)) if mode == "exact" else c)
                      for c in t])
    assert signs[0] == signs[1]


def test_gen_roundtrip_through_file(tmp_path):
    path = str(tmp_path / "w.json")
    rc, direct = run(["gen", "--sequence", "gaussian-lattice", "--radius", "4"])
    assert rc == 0
    rc, _ = run(["gen", "--sequence", "gaussian-lattice", "--radius", "4",
                 "--out", path])
    assert rc == 0
    rc, reread = run(["gen", "--input", path])
    assert rc == 0
    assert reread == direct
    # downstream analyses agree byte for byte
    rc, via_file = run(["hol", "--input", path])
    rc, via_seq = run(["hol", "--sequence", "gaussian-lattice", "--radius", "4"])
    assert via_file == via_seq


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path):
    path = tmp_path / "s.csv"
    rc, out = run(["saddles", "--sequence", "positive-integers", "--radius", "4",
                   "--format", "csv", "--out", str(path)])
    assert rc == 0 and out == ""
    rc, direct = run(["saddles", "--sequence", "positive-integers", "--radius", "4",
                      "--format", "csv"])
    assert path.read_text(encoding="utf-8") == direct


# ---------------------------------------------------------------------------
# analysis subcommands


def test_classify_integer_window():
    d = run_json(["classify", "--sequence", "all-integers", "--radius", "20"])
    assert d["kind"] == "Pprime"
    assert d["theta"] == 0.0
    assert d["symmetry_center"] == ["0", "0"]
    assert d["containment_ok"] is None
    assert d["lower"] == [] and d["upper"] == []


def test_classify_lattice_window():
    d = run_json(["classify", "--sequence", "gaussian-lattice", "--radius", "8",
                  "--inner", "3"])
    assert d["kind"] == "Countable"
    assert d["containment_ok"] is True
    assert [["1", "1"], ["0", "1"]] in d["lower"]
    assert len(d["lower"]) == len(d["upper"]) == 52


def test_sandwich_small_lattice():
    d = run_json(["sandwich", "--sequence", "gaussian-lattice", "--radius", "5",
                  "--inner", "2"])
    assert d["containment_ok"] is True
    assert d["lower_count"] == d["upper_count"] == 52
    assert [["1", "1"], ["0", "1"]] in d["lower"]
    assert [["0", "-1"], ["1", "0"]] in d["lower"]


def test_hol_positive_integers():
    d = run_json(["hol", "--sequence", "positive-integers", "--radius", "20"])
    assert d["vectors"] == [["1", "0"], ["-1", "0"]]
    assert d["count"] == 2
    assert d["complete_radius"] == 19.0
    assert d["restricted_to"] is None


def test_hol_csv():
    rc, out = run(["hol", "--sequence", "positive-integers", "--radius", "20",
                   "--format", "csv"])
    assert rc == 0
    assert out == "re,im\n1,0\n-1,0\n"


def test_saddles_csv_golden():
    rc, out = run(["saddles", "--sequence", "positive-integers", "--radius", "4",
                   "--format", "csv"])
    assert rc == 0
    assert out == ("from_re,from_im,to_re,to_im,hol_re,hol_im,provisional\n"
                   "0,0,1,0,1,0,false\n"
                   "1,0,2,0,1,0,false\n"
                   "2,0,3,0,1,0,true\n")


def test_eval_matches_library():
    d = run_json(["eval", "--sequence", "positive-integers", "--radius", "30",
                  "--at", "1/2,0", "--degree", "1"])
    w = fc.generate(fc.GeneratorSpec("positive-integers"), 30)
    want = fc.eval_f(0.5, w, degrees=1)
    assert d["value"] == [want.real, want.imag]
    assert d["abs"] == pytest.approx(abs(want))


def test_eval_past_float64_prints_log_space_value():
    argv = ["eval", "--sequence", "positive-integers", "--mode", "float",
            "--radius", "400", "--at", "50.5,0.3"]
    d = run_json(argv)
    assert d["value"] is None and d["abs"] is None
    # the window is 0..399 after canonicalizing; log f summed factor by
    # factor in plain Python, fsum over the terms
    z = 50.5 + 0.3j
    terms = []
    for n in range(1, 400):
        w, wk = z / n, 1
        terms.append(cmath.log(1 - w))
        for k in range(1, n + 1):  # "index" degrees: the n-th zero gets n
            wk *= w
            terms.append(wk / k)
    log_re = math.fsum(t.real for t in terms) + math.log(abs(z))  # e0 = 1
    log_im = math.fsum(t.imag for t in terms) + cmath.phase(z)
    assert d["log10mag"] == pytest.approx(log_re / math.log(10), rel=1e-12)
    assert -math.pi <= d["arg"] <= math.pi
    assert math.remainder(d["arg"] - log_im, 2 * math.pi) == pytest.approx(0, abs=1e-6)


def test_verify_zeros_normalizes_corner_order():
    d = run_json(["verify-zeros", "--sequence", "positive-integers",
                  "--radius", "5", "--box", "1.5,0.5,0.5,-0.5"])
    assert d["box"] == [0.5, 1.5, -0.5, 0.5]
    assert d["winding"] == 1


def test_verify_zeros_on_a_large_window_winds_the_box_zeros():
    # all but about a dozen of the 6001 zeros enter through the far-field series
    argv = ["verify-zeros", "--sequence", "all-integers", "--radius", "3000",
            "--box", "1498.5,-0.5,1501.5,0.5"]
    outs = set()
    for samples in ("32", "64", "256"):
        rc, out = run([*argv, "--samples", samples])
        assert rc == 0, out
        outs.add(out)
    assert len(outs) == 1
    w = fc.generate(fc.GeneratorSpec("all-integers"), 3000)
    inside = sum(1498.5 < p.re < 1501.5 and -0.5 < p.im < 0.5 for p in w.points)
    assert json.loads(outs.pop())["winding"] == inside == 3


def test_directions_profile():
    d = run_json(["directions", "--sequence", "all-integers", "--radius", "10"])
    assert d["directions"] == [0.0, pytest.approx(math.pi)]
    assert d["accumulation"] == []


def test_lift_crossing_cuts():
    d = run_json(["lift", "--sequence", "gaussian-lattice", "--radius", "3",
                  "--m", "3", "--path=-1/2,-1/2;1/2,-1/2"])
    assert d["start"] == {"base": [-0.5, -0.5], "sheet": 0}
    assert d["end"]["sheet"] == 1  # four +1 crossings mod 3
    assert len(d["crossings"]) == 4
    for e in d["crossings"]:
        assert e["direction"] == 1
        assert e["t"] == 0.5
        assert e["on_line"] is False


def test_lift_prints_the_same_crossing_times_in_both_modes():
    # the leftward segment starts on three cut lines: each of those
    # crossings has t = 0, which prints as 0.0 in float mode too, not -0.0
    argv = ["lift", "--sequence", "gaussian-lattice", "--radius", "3", "--m", "3",
            "--path=1,-0.5;-0.5,-1"]
    times = []
    for mode in ("exact", "float"):
        rc, out = run(argv + ["--mode", mode])
        assert rc == 0, out
        times.append(re.findall(r'"t": [^,\n]*', out))
    assert times[0] == times[1]
    assert times[0].count('"t": 0.0') == 3


def test_cone_angle():
    d = run_json(["cone-angle", "--sequence", "gaussian-lattice", "--radius", "3",
                  "--m", "4", "--zero-index", "0"])
    assert d["turns"] == 4
    assert d["angle"] == pytest.approx(8 * math.pi)
    assert d["loop_delta"] == 1
    assert d["loop_radius"] == pytest.approx(0.25)


def test_moduli_with_translate():
    d = run_json(["moduli", "--sequence", "positive-integers", "--radius", "4",
                  "--translate", "1,0"])
    assert d["c0_coords"] == [["1", "0"], ["1/2", "0"], ["1/3", "0"]]
    assert d["translated"] == [["1/2", "0"], ["1/3", "0"], ["1/4", "0"]]
    assert d["origin_excluded"] is True


def test_equiv_raw_windows_from_files(tmp_path):
    def raw(points):
        return {"mode": "exact", "radius": 11.0, "translation": None,
                "points": [[str(k), "0"] for k in points]}

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(raw(range(1, 11))), encoding="utf-8")
    b.write_text(json.dumps(raw(range(0, 10))), encoding="utf-8")
    d = run_json(["equiv", "--input", str(a), "--other", str(b)])
    assert d["equivalent"] is True
    assert d["translation"] == ["-1", "0"]
    assert d["matched_fraction"] == 1.0


def test_equiv_same_trace_different_radii(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["gen", "--sequence", "all-integers", "--radius", "6", "--out", str(a)])
    run(["gen", "--sequence", "all-integers", "--radius", "8", "--out", str(b)])
    d = run_json(["equiv", "--input", str(a), "--other", str(b)])
    assert d["equivalent"] is True
    assert d["translation"] == ["0", "0"]


def _equiv_windows():
    """(name, first window, second window) pairs for ``equiv``: equivalent
    and inequivalent, exact and float, on one grid and on two, with a centre
    off both grids."""
    ints = [fc.ZPoint(Fraction(k), Fraction(0)) for k in range(-10, 11)]
    evens = fc.ZeroWindow.from_points(ints[::2], radius=10.5)
    rng = random.Random(7)
    cloud = {fc.ZPoint(Fraction(0), Fraction(0))}
    while len(cloud) < 40:
        p = fc.ZPoint(Fraction(rng.randint(-80, 80), 11), Fraction(rng.randint(-80, 80), 13))
        if p.norm2() <= 49:
            cloud.add(p)
    cloud = fc.ZeroWindow.from_points(sorted(cloud), radius=7)
    floats = [fc.generate(fc.GeneratorSpec("all-integers"), r, fc.float_mode()) for r in (6, 8)]
    return (
        ("raw runs", fc.ZeroWindow.from_points(ints[11:], radius=11),
         fc.ZeroWindow.from_points(ints[10:20], radius=11)),
        ("radii 6 and 8", fc.generate(fc.GeneratorSpec("all-integers"), 6),
         fc.generate(fc.GeneratorSpec("all-integers"), 8)),
        ("ints and evens", fc.ZeroWindow.from_points(ints, radius=10.5), evens),
        ("evens and ints", evens, fc.ZeroWindow.from_points(ints, radius=10.5)),
        ("cloud moved off its grid", cloud,
         cloud.translate(fc.ZPoint(Fraction(12, 5), Fraction(-9, 7)))),
        ("cloud and the ints", cloud, fc.ZeroWindow.from_points(ints[5:16], radius=7)),
        ("float radii 6 and 8", *floats),
        ("float runs apart", floats[0], floats[1].translate(fc.ZPoint(0.5, 0.0))),
    )


# sha256 of the stdout of ``equiv`` on each pair of ``_equiv_windows``:
# the translation, and matched_fraction and overlap_radius as floats
_EQUIV_STDOUT = {
    "raw runs":
        "22c48bfeeafbc748409df7ce84ad87babd49477d36ba8d7e98fdd86a9913b03d",
    "radii 6 and 8":
        "f9f39fbdebcedc705077584efaa5077b11f88b163e51e1d7c15a96309cff6d7e",
    "ints and evens":
        "c3a90c38a7f85d5bc1dc3f23c6f462977b6a674d27eba1a76c101a83c92b76ed",
    "evens and ints":
        "f3561e2e25819edf069f34cce2bc751c69f00c9e18356b8544b4b783e602e51e",
    "cloud moved off its grid":
        "19ca175362aca79338f7d622c74a96cd795a53f4d4c6e29978cdde62d0a072bc",
    "cloud and the ints":
        "bcb909956c752cbfa367b30687502027552fb4f925b8580ec46a18f335eb6a15",
    "float radii 6 and 8":
        "099377ed6f65aa02563ac1b765dcad03763c85855a7d27a9c1929a87230621c6",
    "float runs apart":
        "397a1fdf99df4b91a71aa8fda93404558a3962d09fe516accfeebf43a84c7b50",
}


def test_equiv_prints_pinned_bytes(tmp_path):
    for name, w1, w2 in _equiv_windows():
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(fc.window_to_json(w1)), encoding="utf-8")
        b.write_text(json.dumps(fc.window_to_json(w2)), encoding="utf-8")
        rc, out = run(["equiv", "--input", str(a), "--other", str(b)])
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (0, _EQUIV_STDOUT[name]), name


# ---------------------------------------------------------------------------
# SVG output


def test_saddles_svg_one_line_per_certified_segment():
    segs = run_json(["saddles", "--sequence", "gaussian-lattice", "--radius", "3"])
    certified = sum(1 for s in segs if not s["provisional"])
    rc, out = run(["saddles", "--sequence", "gaussian-lattice", "--radius", "3",
                   "--format", "svg"])
    assert rc == 0
    assert out.count("<line") == certified
    assert out.count('class="segment provisional"') == len(segs) - certified


def test_plot_collinear_segments_share_slope():
    rc, out = run(["plot", "--sequence", "all-integers", "--radius", "6"])
    assert rc == 0
    slopes = set(re.findall(r'class="segment[^"]*"[^>]*data-slope="([^"]+)"', out))
    assert len(slopes) == 1


def test_plot_singleton_reports_no_connections():
    rc, out = run(["plot", "--sequence", "explicit", "--param", "points=0,0",
                   "--radius", "1"])
    assert rc == 0
    assert "no saddle connections" in out
    assert "<svg" in out


# ---------------------------------------------------------------------------
# modes, determinism, failure paths


def test_env_mode_is_default_only(monkeypatch):
    monkeypatch.setenv("FLATCURVE_MODE", "float")
    d = run_json(["gen", "--sequence", "all-integers", "--radius", "3"])
    assert d["mode"] == "float"
    assert d["points"][0] == [0.0, 0.0]
    d = run_json(["gen", "--sequence", "all-integers", "--radius", "3",
                  "--mode", "exact"])
    assert d["mode"] == "exact"


def test_output_is_deterministic():
    argv = ["classify", "--sequence", "gaussian-lattice", "--radius", "5",
            "--inner", "2"]
    assert run(argv) == run(argv)
    argv = ["plot", "--sequence", "gaussian-lattice", "--radius", "3"]
    assert run(argv) == run(argv)


def _expect_error(argv, code):
    rc, out = run(argv)
    assert rc == 1
    d = json.loads(out)
    assert d["error"] == code
    assert d["detail"]
    return d


def test_domain_errors_exit_one():
    _expect_error(["gen", "--sequence", "positive-integers", "--radius", "0.5"],
                  "EmptyWindow")
    _expect_error(["gen", "--sequence", "all-integers", "--radius", "3",
                   "--param", "junk"], "ValueError")
    _expect_error(["gen", "--radius", "3"], "ValueError")
    _expect_error(["gen", "--input", "/no/such/file.json"], "FileNotFoundError")
    _expect_error(["hol", "--sequence", "all-integers", "--radius", "3",
                   "--out", "/definitely-missing-dir/x.json"], "IoError")


def test_negative_or_non_finite_max_length_is_a_domain_error():
    window = ["--sequence", "gaussian-lattice", "--radius", "4"]
    for cmd, bound, mode in (("hol", "-2", "exact"), ("hol", "nan", "float"),
                             ("hol", "inf", "exact"), ("hol", "nan", "exact"),
                             ("saddles", "-0.5", "float"), ("directions", "-inf", "exact"),
                             ("plot", "inf", "float")):
        d = _expect_error([cmd, *window, "--mode", mode, f"--max-length={bound}"], "ValueError")
        assert d["detail"].startswith("max_length must be finite and >= 0")


def test_usage_errors_exit_two(capsys):
    for argv in ([], ["not-a-command"],
                 ["gen", "--sequence", "all-integers", "--radius", "3",
                  "--format", "pdf"],
                 ["lift", "--sequence", "all-integers", "--radius", "3"],
                 ["classify", "--sequence", "all-integers", "--radius", "3",
                  "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_negative_or_non_finite_eps_is_a_usage_error(capsys):
    lattice = ["hol", "--sequence", "gaussian-lattice", "--radius", "2", "--mode", "float"]
    for bad in ("-1", "-1e-9", "nan", "inf", "-inf"):
        with pytest.raises(SystemExit) as exc:
            cli.main([*lattice, f"--eps={bad}"])
        assert exc.value.code == 2, bad
        out, err = capsys.readouterr()
        assert out == "" and f"argument --eps: invalid eps value: '{bad}'" in err, bad
    # eps = 0 compares floats exactly, which the lattice's coordinates allow
    assert run([*lattice, "--eps", "0"]) == run(lattice)


def test_flags_a_subcommand_does_not_declare_are_usage_errors(capsys):
    lattice = ["--sequence", "gaussian-lattice", "--radius", "3"]
    for argv in (["hol", *lattice, "--m", "3"],
                 ["eval", *lattice, "--at", "1/2,0", "--inner", "2"],
                 ["plot", *lattice, "--format", "json"],
                 # not an abbreviation of --mode
                 ["gen", *lattice, "--m", "float"],
                 ["eval", *lattice, "--at", "1/2,0", "--degree", "foo"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert "usage: flatcurve" in err, argv


def test_default_flags_print_the_same_bytes():
    window = ["--sequence", "gaussian-lattice", "--radius", "3"]
    for argv, flag in ((["classify", *window], ["--format", "json"]),
                       (["gen", *window], ["--format", "json"]),
                       (["saddles", *window], ["--m", "2"]),
                       (["lift", *window, "--path=-1/2,-1/2;1/2,-1/2"],
                        ["--m", "2"]),
                       (["cone-angle", *window, "--zero-index", "0"],
                        ["--m", "2"]),
                       (["plot", *window], ["--m", "2"])):
        rc, out = run(argv)
        assert rc == 0, argv
        assert run(argv + flag) == (rc, out), argv


def test_readme_commands_run(tmp_path, monkeypatch):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [ln for ln in block.splitlines() if ln.startswith("flatcurve ")]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)  # gen --out w.json feeds classify --input w.json
    for line in commands:
        lex = shlex.shlex(line, posix=True, punctuation_chars=True)
        lex.whitespace_split = True
        tokens = list(lex)
        # a shell operator (; | & < > ...) would end or redirect the command
        assert not any(set(t) <= set(lex.punctuation_chars) for t in tokens), line
        rc, out = run(tokens[1:])
        assert rc == 0, (line, out)


# sha256 of the exact stdout of the README's exact-mode commands, run in one
# directory in this order; gen --out prints nothing and its file feeds
# classify --input.  Float-valued eval and plot output is left out: BLAS
# sums may differ in the last bit across Python and numpy builds.
_README_STDOUT = (
    ("classify --sequence all-integers --radius 20",
     "63ed0c833092e7b34cac54c9612dbb616b97461b12a823801b2cb8a61609761a"),
    ("hol --sequence positive-integers --radius 20",
     "99b9c9ec544758994cf8a67dce646d6284637fa7b83e76f328699ac90e2c7d31"),
    ("sandwich --sequence gaussian-lattice --radius 8 --inner 3",
     "e787d4e373ce02d0674d7d0c618c32af065d16a60b83c3d5a48e9764d85574b2"),
    ("saddles --sequence gaussian-lattice --radius 6 --format csv",
     "3c2325df77ee41eb1ee338eb67405b31ad2d3ad505c71cbbf20308f2e814be5c"),
    ("lift --sequence gaussian-lattice --radius 3 --m 3 --path=-1/2,-1/2;1/2,-1/2",
     "811955c26e2c67102d18eb194414e4e5e3fb58b52e5655f5acb3f8f0f7aa1a77"),
    ("gen --sequence odd4n13-all --radius 15 --out w.json",
     hashlib.sha256(b"").hexdigest()),
    ("classify --input w.json",
     "ff997322c1cd8112b779ebb87d1853a7e321d7beee536b09a0b7b0f22135ceac"),
)


def test_readme_commands_print_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for line, digest in _README_STDOUT:
        rc, out = run(line.split())
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), line
    assert hashlib.sha256((tmp_path / "w.json").read_bytes()).hexdigest() == \
        "5710c1e7765fe18ae3d95a3bbb1ad68a6693625c563c404e9cd5f5661b2ac578"


# sha256 of the stdout of float and orbit commands the README does not run:
# the Mat2 loops of a float sandwich, the orbit window, whose centre is off
# the origin, in both modes, an orbit of rational generators, whose grid
# grows finer with each word length, and float holonomy, saddles and plots of
# integer families, whose windows lie on a coarse grid.  Their floats come
# from plain Python arithmetic, with no BLAS sums.
_ORBIT = ("classify --sequence orbit --radius 6 --param k_points=1,0;63/80,-43/80 "
          "--param generators=1,1,0,1;1,0,1,1 --param max_word_length=4")
_SEARCH_STDOUT = (
    ("sandwich --sequence gaussian-lattice --radius 8 --inner 3 --mode float",
     "4f1e73c75b219653c25fd415ac7e9257b810a7d2f64d67a5883c82105cd1d1de"),
    (_ORBIT, "d9edac0b48ab7048299466cb85bff86cde520f165d008d543f5f30b760e521ca"),
    (_ORBIT + " --mode float", "c305a19113af4b4c95d8e92e25f24a55033116598df3cb000898485abce3ad88"),
    (_ORBIT.replace("classify", "sandwich"),
     "4fc408c26d2311c0ee146c50c3e237414c3590c45ba764686971d8de1260a161"),
    (_ORBIT.replace("classify", "sandwich") + " --mode float",
     "cd806f4f51903fac15b5937c978fe29ca013b9462cd8ba2104b5d91c84fd4679"),
    ("gen --sequence orbit --radius 5 --param k_points=1,0;1/3,1/2 "
     "--param generators=1,1/2,0,1;1,0,1/3,1 --param max_word_length=5",
     "8ddb1f9bad95f4c5f6abfbf632d622e4aa4b3d013a8e5b2bd68e326d82281e9b"),
    ("hol --sequence gaussian-lattice --radius 8 --mode float",
     "46ad4a05971e5926be1fc09bb64877823f96c0a81e3c43fca8ccb49f31cc979a"),
    ("hol --sequence positive-integers --radius 20 --mode float",
     "a23ed9489dd8c7c8bb6057b7cbf1801b4157dfb3c9b47157609a1b1efafdc26c"),
    ("saddles --sequence gaussian-lattice --radius 6 --m 3 --mode float --format csv",
     "4a9b477959a07f356235ac8f463efc318744b73f619a537e423777a1a7e697ad"),
    ("plot --sequence gaussian-lattice --radius 6 --mode float",
     "7359f84315b500fdf9310560849072fddbf9ab2722d5787b2efcd38633a209dd"),
)


def test_float_and_orbit_searches_print_pinned_bytes():
    for line, digest in _SEARCH_STDOUT:
        rc, out = run(line.split())
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), line


def test_float_sandwich_of_a_sheared_lattice_prints_pinned_bytes(tmp_path):
    # A Z^2 with A = [[1, 1/3], [1/2, 1]] at R 12, whose float entries round:
    # 60 lower and 76 upper matrices, as the Mat2 loops printed them
    path = tmp_path / "shear.json"
    w = image_window(SHEAR, 12, fc.float_mode())
    path.write_text(json.dumps(fc.window_to_json(w)), encoding="utf-8")
    rc, out = run(["sandwich", "--input", str(path), "--inner", "4"])
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == \
        (0, "78571c07d49e675c20f281073076be18880f794917be78c58998d51e444e8603")
    assert (json.loads(out)["lower_count"], json.loads(out)["upper_count"]) == (60, 76)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_empty_windows_are_domain_errors(tmp_path, mode):
    empty, w = tmp_path / "empty.json", tmp_path / "w.json"
    empty.write_text(json.dumps({"mode": mode, "radius": 3, "points": []}), encoding="utf-8")
    run(["gen", "--sequence", "all-integers", "--radius", "3", "--mode", mode, "--out", str(w)])
    _expect_error(["equiv", "--input", str(empty), "--other", str(w)], "EmptyWindow")
    _expect_error(["sandwich", "--input", str(empty)], "EmptyWindow")
    _expect_error(["moduli", "--input", str(empty)], "EmptyWindow")
    # an empty second window matches nothing
    assert run_json(["equiv", "--input", str(w), "--other", str(empty)])["equivalent"] is False


# sha256 of the stdout of bounded lattice saddles, exact and float, and of
# bounded exact holonomy: the pairs within the bound are read off the short
# differences of the table.
_BOUNDED_STDOUT = (
    ("saddles --sequence gaussian-lattice --radius 12 --max-length 2 --format csv",
     "b8eba0f518f191783dfb7c7f788a3c9d41a094833a37e51dd2188fa2cd64482d"),
    ("saddles --sequence gaussian-lattice --radius 12 --max-length 2 --format csv --mode float",
     "14a235baedeb1e728d3cbd5412a9e40ed4696eb09eeb1fdf12421847611d4a65"),
    ("hol --sequence gaussian-lattice --radius 12 --max-length 3",
     "374d2a54a0810fa9ec25c9f10bb4641359096f059a3c764a7348fe0a5e4db97d"),
)


def test_bounded_saddles_and_holonomy_print_pinned_bytes():
    for line, digest in _BOUNDED_STDOUT:
        rc, out = run(line.split())
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), line


# sha256 of the stdout of ``lift`` on a 32-vertex polyline of the 1/194 grid
# (880 crossing events: their order, t values and on-line flags) and of
# ``cone-angle``, whose exact loop vertices come from floats, in both modes.
_LIFT_PATH = ("405/194,-417/194;-269/194,-479/194;-369/194,-471/194;-789/194,-545/194;"
              "-3/194,-1111/194;643/194,751/194;-691/194,-1049/194;953/194,-473/194;"
              "849/194,655/194;83/194,883/194;-815/194,-123/194;-519/194,175/194;"
              "87/194,-859/194;1057/194,339/194;-1027/194,-289/194;131/194,225/194;"
              "-879/194,109/194;-767/194,-157/194;-537/194,841/194;-1/194,-73/194;"
              "1139/194,-43/194;-353/194,-781/194;861/194,-533/194;-577/194,165/194;"
              "801/194,-353/194;-625/194,785/194;907/194,-101/194;921/194,-239/194;"
              "1015/194,-171/194;-817/194,-605/194;-95/194,119/194;1057/194,-221/194")
_COVER_STDOUT = (
    (f"lift --sequence gaussian-lattice --radius 6 --m 3 --path={_LIFT_PATH}",
     "29ac9c1ef3abf34bee943fea9ec1c2f555fed8f613016f43133a54b5c5bfbdc4"),
    (f"lift --sequence gaussian-lattice --radius 6 --m 3 --path={_LIFT_PATH} --mode float",
     "86ce978e869094ded84eeb9f9df1eb84b2479a44e802b13238820fa8750b27b8"),
    ("cone-angle --sequence gaussian-lattice --radius 8 --m 3 --zero-index 5",
     "8ffd44b152ba90244d5063bc5afc61e94957f6cf6eea1687ebf4ac4d6e81c8bd"),
    ("cone-angle --sequence gaussian-lattice --radius 8 --m 3 --zero-index 5 --mode float",
     "8ffd44b152ba90244d5063bc5afc61e94957f6cf6eea1687ebf4ac4d6e81c8bd"),
)


def test_lift_and_cone_angle_print_pinned_bytes():
    assert _LIFT_PATH.count(";") == 31
    for line, digest in _COVER_STDOUT:
        rc, out = run(line.split())
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), line


# sha256 of the exact bytes of ``python -m flatcurve.cli`` run in a fresh
# interpreter at 80 columns: the in-process tests above run with every
# module already imported, so only a fresh process shows a fault in what a
# subcommand imports for itself.
_FRESH_PROCESS_BYTES = (
    (["--help"], 0, "stdout",
     "b854ff97feeb1e5c408b02f8234cf3455b4f924592eb489c3bebdd2e9ed11af3"),
    (["eval", "--sequence", "all-integers", "--radius", "3"], 2, "stderr",
     "077c804a1995afed2867f66900519b8fb95a2854c7eab3ed375ca25a5fb1fa4c"),
)


def test_fresh_process_prints_pinned_help_and_usage_bytes():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    for argv, code, stream, digest in _FRESH_PROCESS_BYTES:
        proc = subprocess.run([sys.executable, "-m", "flatcurve.cli", *argv],
                              env=env, capture_output=True)
        other = proc.stderr if stream == "stdout" else proc.stdout
        assert (proc.returncode, other) == (code, b""), argv
        assert hashlib.sha256(getattr(proc, stream)).hexdigest() == digest, argv
