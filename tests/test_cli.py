import contextlib
import io
import os
import random
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from gpforge import meier
from gpforge.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from gpforge.combinators import RELATOR_BUDGET
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
        ["certify-nontrivial", str(bs), "--word", "a", "--degree", "0"],
        ["certify-nontrivial", str(bs), "--word", "a", "--degree", "-1"],
        ["meier-probe", "--max-len", "3", "--budget", "0"],
        ["corpus", "--family", "mu", "--depth", "100000000000"],
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
    # One argv for each place where a library refusal becomes a usage
    # error, with its whole line: the flag, then the library's message.
    pinned = [
        (["normalize", "--bs", "0,1", "a"], "--bs: expected m,n with nonzero integers m and n, got '0,1'"),
        (["certify-nontrivial", str(bs), "--word", "a", "--degree", "7"], "--degree: degree_max must be in 1..6, got 7"),
        (["infer", str(gx), "--query", "bogus"], "--query: unknown predicate 'bogus'"),
        (["infer", str(gx), "--query", "large-hb 300"], "--query: degree must be <= 256, got 300"),
        (reduce + ["gamma", "--oracle", "nope"], "--oracle: unknown oracle 'nope'"),
        (reduce + ["pi", "--dim", "3"], "--dim: pi_w needs degree d >= 4"),
        (["meier-probe", "--max-len", "0", "--budget", "10"], "--max-len/--budget: bounds must be positive"),
        # Past combinators.MAX_MU_STAGE and reductions.MAX_CORPUS_COUNT.
        (["corpus", "--family", "mu", "--depth", "15"], "--depth: mu stage index must be in 1..14, got 15"),
        (["corpus", "--family", "witness", "--count", "10001"], "--count: corpus count must be at most 10000, got 10001"),
    ]
    for argv, message in pinned:
        code, out, err = run_cli(argv, capsys=capsys, monkeypatch=monkeypatch)
        assert (code, out, err) == (EXIT_USAGE, "", f"usage error: {message}\n"), argv


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


def test_word_separator_outside_the_grammar_exits_2(monkeypatch, capsys):
    code, out, err = run_cli(["normalize", "--bs", "2,3", "t^-1\x0ca^2\x1ft"], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_INPUT and out == "" and "separator '\\x0c' is not a space" in err


_INTEGER_FLAGS = [
    ["certify-nontrivial", "{bs}", "--word", "a", "--degree"],
    ["reduce", "--lambda", "{f2}", "--word", "a", "--construction", "pi", "--dim"],
    ["meier-probe", "--budget", "10", "--max-len"],
    ["meier-probe", "--max-len", "3", "--budget"],
    ["corpus", "--family", "witness", "--count", "1", "--seed"],
    ["corpus", "--family", "mu", "--depth"],
    ["corpus", "--family", "witness", "--count"],
]


@pytest.mark.parametrize("value", ["\u0663", "+2", " 2", "1_0", "2 ", "", "9" * 5000])
@pytest.mark.parametrize("flag", _INTEGER_FLAGS, ids=lambda argv: argv[-1])
def test_integer_flags_take_ascii_decimals_only(flag, value, tmp_path, monkeypatch, capsys):
    bs = tmp_path / "bs.grp"
    bs.write_text(BS23, encoding="utf-8")
    f2 = tmp_path / "f2.grp"
    f2.write_text("gens a b\n", encoding="utf-8")
    argv = [arg.format(bs=bs, f2=f2) for arg in flag] + [value]
    code, out, err = run_cli(argv, capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_USAGE and out == "" and err.startswith("usage error:"), argv


def test_integer_flags_read_signed_decimals(tmp_path, monkeypatch, capsys):
    bs = tmp_path / "bs.grp"
    bs.write_text(BS23, encoding="utf-8")
    code, out, _ = run_cli(
        ["certify-nontrivial", str(bs), "--word", "t", "--degree", "03"], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK and out.startswith("hom ")
    code, out, _ = run_cli(["corpus", "--family", "meier", "--seed", "-7"], capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK and "## BS(2,3)" in out


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


@pytest.mark.parametrize(
    "text, message",
    [
        ('(hnn (atom "Z" :pres "gens t") :stable "t")', "stable letter 't' clashes with a base generator"),
        (
            '(amalgam (atom "A" :pres "gens a") (atom "B" :pres "gens b") :pairs (("1" "b")))',
            "amalgam identification words must be nonempty",
        ),
        (
            '(hnn (atom "Z" :pres "gens a") :stable "t" :assoc (("a" "b")))',
            "no generator named 'b' in alphabet",
        ),
        ("", "unexpected end of expression file"),
        (
            '(lambda-w (free-product (atom "A" :pres "gens a") (atom "B" :pres "gens b")) "a")',
            "witness constructions need an atom as word-problem source",
        ),
    ],
)
def test_refused_constructions_keep_their_messages(text, message, tmp_path, monkeypatch, capsys):
    gx = tmp_path / "bad.gx"
    gx.write_text(text + "\n", encoding="utf-8")
    code, out, err = run_cli(["build", str(gx)], capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out, err) == (EXIT_INPUT, "", f"input error: {message}\n")


def test_infer_reports_a_contradiction_on_stderr(tmp_path, monkeypatch, capsys):
    gx = tmp_path / "contradiction.gx"
    gx.write_text('(atom "x" :pres "gens a" :facts (amenable contains-f2))\n', encoding="utf-8")
    code, out, err = run_cli(["infer", str(gx), "--query", "amenable"], capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out, err) == (EXIT_OK, "DERIVED via A0\n", "CONTRADICTION at n0: Amenable vs ContainsF2\n")


@pytest.fixture
def fresh_meier_build():
    meier.build_meier.cache_clear()
    yield
    meier.build_meier.cache_clear()


def test_a_failed_meier_build_is_an_internal_error(fresh_meier_build, monkeypatch, capsys):
    monkeypatch.setattr(meier, "verified_phi_facts", lambda: {"phi(c) = 1": False})
    code, out, err = run_cli(["corpus", "--family", "meier"], capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out, err) == (EXIT_INTERNAL, "", "internal invariant violation: phi identity fails: phi(c) = 1\n")


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


def test_a_reader_that_closes_the_pipe_early_is_no_error():
    # `corpus --family mu --depth 8` writes about 240 KB, more than a pipe
    # holds, so the command is still writing when the reader stops.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "gpforge.cli", "corpus", "--family", "mu", "--depth", "8"]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"## mu stage 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_OK and err == b""


def _readme_examples():
    """(pipeline, output) for each line of README's command block that
    shows its output after `# ->`, on the line itself or the next one; a
    pipeline is the argument lists of its `gpforge` commands."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples, command = [], None
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            command = code
        if comment.startswith(" -> "):
            pipeline = [shlex.split(stage) for stage in command.split("|")]
            assert all(argv[0] == "gpforge" for argv in pipeline), line
            examples.append(([argv[1:] for argv in pipeline], comment[len(" -> "):]))
    return examples


def test_readme_command_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bs23.grp").write_text(BS23, encoding="utf-8")
    (tmp_path / "mu2.gx").write_text('(mu (atom "F1" :pres "gens g") :k 2)\n', encoding="utf-8")
    examples = _readme_examples()
    assert len(examples) == 4
    for pipeline, expected in examples:
        out = ""
        for argv in pipeline:
            code, out, err = run_cli(argv, out, monkeypatch, capsys)
            assert code == EXIT_OK, (argv, err)
        assert out == expected + "\n", pipeline


@pytest.mark.parametrize(
    "gx",
    [
        # 4 nested stages would hold 251,163 relators; the third is refused.
        '(mu (mu (mu (mu (atom "F1" :pres "gens g") :k 14) :k 14) :k 14) :k 14)',
        # 90 nested mitoses would hold 980,070; the 42nd is refused.
        "(mitosis " * 90 + '(atom "F1" :pres "gens g")' + ")" * 90,
        # 600 x 600 commutators.
        "(direct "
        + " ".join(f'(atom "{n}" :pres "gens {" ".join(f"{n}{i}" for i in range(600))}")' for n in "xy")
        + ")",
    ],
    ids=["mu", "mitosis", "direct"],
)
def test_nested_forms_past_the_relator_budget_exit_2(gx, tmp_path, monkeypatch, capsys):
    path = tmp_path / "big.gx"
    path.write_text(gx + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(["build", str(path)], capsys=capsys, monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 2
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("input error: a presentation of ")
    assert err.endswith(f" more than the {RELATOR_BUDGET} allowed\n")
