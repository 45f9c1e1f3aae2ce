import contextlib
import io
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from gpforge.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from gpforge.inference import PREDICATES


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    if stdin_text:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


BS23 = "gens a t\nrel t^-1 a^2 t = a^3\n"


def test_abelianize_file_and_stdin(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bs.grp"
    path.write_text(BS23, encoding="utf-8")
    code, out, _ = run_cli(["abelianize", str(path)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK and out == "rank=1 torsion=[]\n"
    code, out, _ = run_cli(["abelianize", "-"], stdin_text=BS23, capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK and out == "rank=1 torsion=[]\n"


def test_abelianize_torsion_format(tmp_path, monkeypatch, capsys):
    path = tmp_path / "p.grp"
    path.write_text("gens a b\nrel a^2\nrel b^6\nrel a^-1 b^-1 a b\n", encoding="utf-8")
    code, out, _ = run_cli(["abelianize", str(path)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK and out == "rank=0 torsion=[2,6]\n"


def test_abelianize_random_presentation_with_a_large_dense_block(tmp_path, monkeypatch, capsys):
    # 60 generators and 60 relators of 8 runs leave a 30x30 block of the
    # dense phase, whose entries grow far past the input's on the way.
    rng = random.Random(5)
    symbols = [f"x{i}" for i in range(60)]
    lines = ["gens " + " ".join(symbols)]
    for _ in range(60):
        runs = []
        for _ in range(8):
            sym = rng.choice(symbols)
            runs.append(f"{sym}^{rng.choice([-3, -2, -1, 1, 2, 3])}")
        lines.append("rel " + " ".join(runs))
    path = tmp_path / "random60.grp"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_cli(["abelianize", str(path)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK and out == "rank=0 torsion=[304514662949256539071444995954096]\n"


def test_abelianize_torsion_past_the_printing_bound_is_an_input_error(tmp_path, monkeypatch, capsys):
    # Coprime 4,000-digit exponents: Z/X + Z/Y = Z/(XY), of about 8,000 digits.
    x, y = 10**3999 + 1, 10**3999 + 3
    path = tmp_path / "p.grp"
    path.write_text(f"gens a b\nrel a^{x}\nrel b^{y}\n", encoding="utf-8")
    code, out, err = run_cli(["abelianize", str(path)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_INPUT and out == ""
    assert err == "input error: a torsion coefficient has more than 4000 digits, the most abelianize prints\n"
    # A 4,000-digit coefficient is still printed.
    path.write_text(f"gens a\nrel a^{x}\n", encoding="utf-8")
    code, out, _ = run_cli(["abelianize", str(path)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK and out == f"rank=0 torsion=[{x}]\n"


def test_normalize(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["normalize", "--bs", "2,3", "t^-1 a^4 t a^-6"], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK and out == "1\n"


def test_normalize_huge_stable_run(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["normalize", "--bs", "2,3", "t^100000000000"], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK and out == "t^100000000000\n"


@pytest.mark.parametrize("bs, base", [("2,2", "a^2"), ("3,-3", "a^3")])
def test_normalize_huge_run_that_pinches_whole(bs, base, monkeypatch, capsys):
    # With |m| = |n| each pinched segment pinches again down the run.
    huge = 10**11
    start = time.perf_counter()
    code, out, _ = run_cli(
        ["normalize", "--bs", bs, f"t^-{huge} {base} t^{huge}"], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK and out == f"{base}\n"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "bs, word",
    [("2,4", "t^-100000000000 a^2 t^100000000000"), ("1,2", "t^-40000 a t^40000")],
)
def test_normalize_past_the_segment_budget_is_an_input_error(bs, word, monkeypatch, capsys):
    # Each pinch with |m| != |n| scales the segment by n/m: these forms
    # hold a^(2^k) for k up to 10^11.
    start = time.perf_counter()
    code, out, err = run_cli(["normalize", "--bs", bs, word], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_INPUT and out == ""
    assert err == "input error: a pinch would grow a base segment past 14000 bits\n"
    assert time.perf_counter() - start < 1.0


def test_normalize_huge_exponent_literal_is_an_input_error(monkeypatch, capsys):
    code, out, err = run_cli(
        ["normalize", "--bs", "2,3", "a^1" + "0" * 5000], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == EXIT_INPUT and out == ""
    assert err == "input error: exponent in atom 'a^10000000000'... has 5001 digits, more than 4000\n"
    code, out, _ = run_cli(
        ["normalize", "--bs", "2,3", "a^-1" + "0" * 3999], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK and out == "a^-1" + "0" * 3999 + "\n"


def test_certify_freely_trivial_target(tmp_path, monkeypatch, capsys):
    path = tmp_path / "abc.grp"
    path.write_text("gens a b c\n", encoding="utf-8")
    code, out, _ = run_cli(
        ["certify-nontrivial", str(path), "--word", "a a^-1", "--degree", "6"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK and out == "not found within bound\n"


def test_certify_past_the_search_budget_is_an_input_error(tmp_path, monkeypatch, capsys):
    # [b, a] is trivial in Z^2 * Z, so the search runs until its budget is
    # spent; a lowered budget keeps the test short.
    monkeypatch.setattr("gpforge.rewriting.QUOTIENT_SEARCH_BUDGET", 20_000)
    path = tmp_path / "z2c.grp"
    path.write_text("gens a b c\nrel a b a^-1 b^-1\n", encoding="utf-8")
    code, out, err = run_cli(
        ["certify-nontrivial", str(path), "--word", "b a b^-1 a^-1", "--degree", "6"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_INPUT and out == ""
    assert err == "input error: finite-quotient search passed its budget of 20000 image assignments at degree 5\n"


def test_certify_nontrivial(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bs.grp"
    path.write_text(BS23, encoding="utf-8")
    code, out, _ = run_cli(
        ["certify-nontrivial", str(path), "--word", "a", "--degree", "5"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    assert out == "hom a: (1 2 3 4 5) t: (2 5)(3 4)\n"
    code, out, _ = run_cli(
        ["certify-nontrivial", str(path), "--word", "a", "--degree", "4"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK and out == "not found within bound\n"


def test_triangulate_and_build_pipe(tmp_path, monkeypatch, capsys):
    path = tmp_path / "circle.grp"
    path.write_text("gens a\n", encoding="utf-8")
    out_path = tmp_path / "circle.sc"
    code, _, _ = run_cli(
        ["triangulate", str(path), "-o", str(out_path)], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK
    text = out_path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "vertices 4"

    gx = tmp_path / "mu2.gx"
    gx.write_text('(mu (atom "F1" :pres "gens g") :k 2)\n', encoding="utf-8")
    code, out, _ = run_cli(["build", str(gx)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert out.startswith("gens g s_1 d_1 s_2 d_2 t\n")


def test_infer_derivable_and_not(tmp_path, monkeypatch, capsys):
    gx = tmp_path / "tl.gx"
    gx.write_text(
        '(direct (atom "T" :pres "gens p q" :facts (thompson-t))'
        ' (atom "L" :pres "gens x y" :facts ((hyp-manifold 3))))\n',
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        ["infer", str(gx), "--query", "large-hb 6"], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK and out == "DERIVED via R17\n"
    code, out, _ = run_cli(
        ["infer", str(gx), "--query", "large-hb 6", "--cert"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert "R16" in out and "A0" in out
    code, out, _ = run_cli(
        ["infer", str(gx), "--query", "mitotic"], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK and out == "NOT DERIVABLE\n"


def test_reduce_writes_presentation_and_expr(tmp_path, monkeypatch, capsys):
    lam = tmp_path / "f2.grp"
    lam.write_text("gens a b\n", encoding="utf-8")
    out_p = tmp_path / "out.grp"
    out_e = tmp_path / "out.gx"
    code, _, _ = run_cli(
        [
            "reduce",
            "--construction",
            "gamma",
            "--lambda",
            str(lam),
            "--oracle",
            "free",
            "--word",
            "a^-1 b^-1 a b",
            "-o",
            str(out_p),
            "--expr",
            str(out_e),
        ],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    assert out_p.read_text(encoding="utf-8") == "gens a b z t\n"
    assert out_e.read_text(encoding="utf-8").startswith("(free-product")
    # Built expression re-derives the acylindrical-hyperbolicity chain.
    code, out, _ = run_cli(
        ["infer", str(out_e), "--query", "large-hb 2"], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK and out == "DERIVED via R11\n"


def test_reduce_writes_a_witness_w_tree_deeper_than_the_stack(tmp_path, monkeypatch, capsys):
    # One push-out per generator of G: 600 nested amalgams.
    lam = tmp_path / "f2.grp"
    lam.write_text("gens a b\n", encoding="utf-8")
    gamma = tmp_path / "G.grp"
    gamma.write_text("gens " + " ".join(f"g{i}" for i in range(600)) + "\n", encoding="utf-8")
    out_e = tmp_path / "out.gx"
    argv = ["reduce", "--construction", "witness-w", "--lambda", str(lam), "--gamma", str(gamma)]
    argv += ["--word", "a", "-o", str(tmp_path / "out.grp"), "--expr", str(out_e)]
    code, _, _ = run_cli(argv, capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert out_e.read_text(encoding="utf-8").count(":kind witness-w") == 600
    # ... and read back: the reader does not recurse either.
    code, out, _ = run_cli(["infer", str(out_e), "--query", "large-hb 2"], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK and out == "NOT DERIVABLE\n"
    code, out, _ = run_cli(["build", str(out_e)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK and out == (tmp_path / "out.grp").read_text(encoding="utf-8")


def test_meier_probe_lines(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["meier-probe", "--max-len", "3", "--budget", "50"], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "t\tin-F"
    assert all("\t" in line for line in lines)


def test_corpus_deterministic_and_seeded(tmp_path, monkeypatch, capsys):
    code, first, _ = run_cli(
        ["corpus", "--family", "witness", "--count", "3", "--seed", "5"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    code, second, _ = run_cli(
        ["corpus", "--family", "witness", "--count", "3", "--seed", "5"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert first == second
    code, third, _ = run_cli(
        ["corpus", "--family", "witness", "--count", "3", "--seed", "6"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert third != first
    code, empty, _ = run_cli(
        ["corpus", "--family", "mu", "--depth", "0"], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK and empty == ""
    code, mu_out, _ = run_cli(
        ["corpus", "--family", "mu", "--depth", "2"], capsys=capsys, monkeypatch=monkeypatch
    )
    assert "## mu stage 2" in mu_out


def test_usage_error_exit_code(tmp_path, monkeypatch, capsys):
    bs = tmp_path / "bs.grp"
    bs.write_text(BS23, encoding="utf-8")
    lam = tmp_path / "f2.grp"
    lam.write_text("gens a b\n", encoding="utf-8")
    gx = tmp_path / "mu.gx"
    gx.write_text('(mu (atom "F1" :pres "gens g") :k 2)\n', encoding="utf-8")
    reduce = ["reduce", "--lambda", str(lam), "--word", "a", "--construction"]
    bad = [
        ["normalize", "--bs", "nonsense", "a"],
        ["normalize", "--bs", "0,3", "a"],
        reduce + ["gamma", "--oracle", "bs:0,3"],
        ["no-such-command"],
        # Out-of-range numeric flags, rejected by the library's own checks.
        reduce + ["pi", "--dim", "2"],
        reduce + ["delta", "--dim", "0"],
        reduce + ["delta", "--dim", "100000"],
        ["certify-nontrivial", str(bs), "--word", "a", "--degree", "7"],
        ["certify-nontrivial", str(bs), "--word", "a", "--degree", "0"],
        ["certify-nontrivial", str(bs), "--word", "a", "--degree", "-1"],
        ["meier-probe", "--max-len", "0", "--budget", "10"],
        ["meier-probe", "--max-len", "3", "--budget", "0"],
        # Past combinators.MAX_MU_STAGE and reductions.MAX_CORPUS_COUNT.
        ["corpus", "--family", "mu", "--depth", "15"],
        ["corpus", "--family", "mu", "--depth", "100000000000"],
        ["corpus", "--family", "witness", "--count", "10001"],
        # Negative sizes; 0 is an empty corpus.
        ["corpus", "--family", "mu", "--depth", "-2"],
        ["corpus", "--family", "witness", "--count", "-3"],
    ]
    # Queries: unknown names, missing, surplus or mistyped arguments.
    for query in ("large-hb x", "large-hb", "boundedly-acyclic 3", "no-such", "", "large-hb 2 3", "large-hb -2", "large-hb 100000"):
        bad.append(["infer", str(gx), "--query", query])
    for argv in bad:
        code, out, err = run_cli(argv, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_USAGE and out == "" and err.startswith("usage error:"), argv


@pytest.fixture(scope="module")
def gx_mu(tmp_path_factory):
    gx = tmp_path_factory.mktemp("query") / "mu.gx"
    gx.write_text('(mu (atom "F1" :pres "gens g") :k 2)\n', encoding="utf-8")
    return str(gx)


_QUERY_WORDS = st.sampled_from(
    sorted(spec.name for spec in PREDICATES.values() if spec.name) + ["LargeHb", "(", '"', "-", "0x3", "1e3"]
)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    st.one_of(
        st.text(),
        st.lists(st.one_of(_QUERY_WORDS, st.integers().map(str)), max_size=3).map(" ".join),
    )
)
def test_any_query_ends_in_exit_0_or_1(gx_mu, query):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["infer", gx_mu, "--query", query])
    if code == EXIT_OK:
        assert out.getvalue() == "NOT DERIVABLE\n" or out.getvalue().startswith("DERIVED via R")
    else:
        assert code == EXIT_USAGE and err.getvalue().startswith("usage error:")


def test_separator_outside_the_grammar_exits_2_with_its_line(tmp_path, monkeypatch, capsys):
    grp = tmp_path / "emspace.grp"
    grp.write_text("gens a b\nrel a\u2003b\n", encoding="utf-8")
    for command in ("abelianize", "triangulate"):
        code, out, err = run_cli([command, str(grp)], capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_INPUT and out == "" and "(line 2, column 6)" in err, command


def test_input_error_exit_code(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(["abelianize", str(tmp_path / "missing.grp")], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_INPUT
    bad = tmp_path / "bad.grp"
    bad.write_text("gens a\nrel b\n", encoding="utf-8")
    code, _, err = run_cli(["abelianize", str(bad)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_INPUT and "line 2" in err
    # Unreadable files, named directly or by an atom's :file.
    (tmp_path / "latin1.grp").write_bytes(b"gens \xe9\n")
    for name, text in (("missing.gx", '(atom "x" :file "missing.grp")'), ("latin1.gx", '(atom "x" :file "latin1.grp")')):
        (tmp_path / name).write_text(text, encoding="utf-8")
    for argv in (["abelianize", str(tmp_path / "latin1.grp")], ["build", str(tmp_path / "missing.gx")], ["build", str(tmp_path / "latin1.gx")]):
        code, out, err = run_cli(argv, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_INPUT and out == "" and err.startswith("input error: cannot read"), argv
    gx = tmp_path / "bad.gx"
    for facts in ("((amenable 3))", "(fin-gen)", "((large-hb -2))"):
        gx.write_text(f'(atom "x" :pres "gens a" :facts {facts})\n', encoding="utf-8")
        code, out, err = run_cli(["build", str(gx)], capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_INPUT and out == "" and err.startswith("input error:"), facts
    # An oracle refuses a presentation it does not decide.
    bs = tmp_path / "bs.grp"
    bs.write_text(BS23, encoding="utf-8")
    f_at = tmp_path / "f_at.grp"
    f_at.write_text("gens a t\n", encoding="utf-8")
    gx.write_text('(lambda-w (atom "F" :pres "gens a t") "t^-1 a^2 t a^-3" :oracle "bs:2,3")\n', encoding="utf-8")
    lam = ["reduce", "--construction", "lambda", "--word", "t^-1 a^2 t a^-3", "--lambda"]
    mismatched = [lam + [str(bs), "--oracle", "free"], lam + [str(f_at), "--oracle", "bs:2,3"], ["build", str(gx)]]
    for argv in mismatched:
        code, out, err = run_cli(argv, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_INPUT and out == "" and err.startswith("input error:"), argv


def test_build_pipes_into_abelianize(tmp_path, monkeypatch, capsys):
    gx = tmp_path / "mu2.gx"
    gx.write_text('(mu (atom "F1" :pres "gens g") :k 2)\n', encoding="utf-8")
    code, built, _ = run_cli(["build", str(gx)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    code, out, _ = run_cli(["abelianize", "-"], stdin_text=built, capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK and out == "rank=1 torsion=[]\n"


def test_triangulate_rejects_invalid_presentation_as_input_error(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("gens a\nrel 1\n", encoding="utf-8")
    code, _, err = run_cli(["triangulate", str(bad)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_INPUT and "input error" in err


def test_triangulate_past_the_cell_budget_is_an_input_error(tmp_path, monkeypatch, capsys):
    big = tmp_path / "big.grp"
    big.write_text("gens a\nrel a^100000\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(["triangulate", str(big)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_INPUT and out == ""
    assert err == "input error: the presentation complex would have 100000 triangles, more than 5000\n"
    assert time.perf_counter() - start < 1.0


def test_bad_oracle_is_a_usage_error(tmp_path, monkeypatch, capsys):
    lam = tmp_path / "f2.grp"
    lam.write_text("gens a b\n", encoding="utf-8")
    for oracle in ("bs:2", "bs:x,3", "external"):
        code, _, err = run_cli(
            ["reduce", "--construction", "gamma", "--lambda", str(lam), "--oracle", oracle, "--word", "a"],
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_USAGE and err.startswith("usage error:")


def test_certificate_does_not_depend_on_hash_seed(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    lam = tmp_path / "f2.grp"
    lam.write_text("gens a b\n", encoding="utf-8")
    gx = tmp_path / "d.gx"
    outputs = set()
    for seed in ("0", "1", "4", "7"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)

        def gpforge(*argv):
            cmd = [sys.executable, "-m", "gpforge.cli", *argv]
            return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout

        gpforge("reduce", "--construction", "delta", "--dim", "3", "--lambda", str(lam),
                "--word", "a b", "-o", str(tmp_path / "d.grp"), "--expr", str(gx))
        outputs.add(gx.read_text(encoding="utf-8") + gpforge("infer", str(gx), "--query", "large-hb 2", "--cert"))
    assert len(outputs) == 1


def test_meier_probe_over_the_node_budget_exits_2(monkeypatch, capsys):
    # --max-len 1000 would walk 2 (3^1000 - 1) trie nodes; the count is
    # checked before the walk, so the refusal is immediate.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "gpforge.cli", "meier-probe", "--max-len", "1000", "--budget", "10"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_INPUT and done.stdout == ""
    assert done.stderr.startswith("input error:") and "Traceback" not in done.stderr
    # 13 is the first length over the budget.
    code, out, err = run_cli(["meier-probe", "--max-len", "13", "--budget", "10"], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_INPUT and out == "" and "trie nodes" in err


def test_one_process_runs_commands_back_to_back_like_fresh_processes(tmp_path, monkeypatch, capsys):
    # main shares one parser across calls; no default or earlier argument
    # may leak into a later call, a usage error included.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    lam = tmp_path / "f2.grp"
    lam.write_text("gens a b\n", encoding="utf-8")
    bs = tmp_path / "bs.grp"
    bs.write_text(BS23, encoding="utf-8")
    delta = ["reduce", "--construction", "delta", "--lambda", str(lam), "--word", "a b"]
    sequence = [
        delta + ["--dim", "3"],
        ["normalize", "--bs", "nonsense", "a"],
        delta,
        ["normalize", "--bs", "2,3", "t^-1 a^4 t a^-5"],
        ["abelianize", str(bs)],
        ["certify-nontrivial", str(bs), "--word", "a"],
    ]
    outputs = []
    for argv in sequence:
        code, out, _ = run_cli(argv, capsys=capsys, monkeypatch=monkeypatch)
        fresh = subprocess.run(
            [sys.executable, "-m", "gpforge.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        outputs.append(out)
    assert outputs[1] == "" and outputs[0] != outputs[2]
