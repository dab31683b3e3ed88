"""End-to-end CLI behaviour: documents, exit codes, batch mode, rendering."""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import signal
import string
import subprocess
import sys
import time
from itertools import groupby
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multmon.cli as cli
import multmon.taylor as taylor
from generators import (
    random_aci,
    random_dominant_with_split,
    random_quadratic_dominant,
    random_stem_ideal,
)
from multmon import (
    HypothesisError,
    Monomial,
    VariableTable,
    __version__,
    is_dominant,
    lcm_all,
    minimalize,
    minimal_resolution,
    multiplicity_ps,
    parse_ideal,
    taylor_resolution,
)
from multmon.core import bits
from multmon.generate import random_ideal

EXAMPLE = "a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2"
GOLDEN = Path(__file__).parent / "data" / "golden_ideals.txt"
GOLDEN_OUTPUTS = Path(__file__).parent / "data" / "golden_outputs.json"
ABCDE = VariableTable(("a", "b", "c", "d", "e"))

ideals = st.builds(
    lambda maps: minimalize(ABCDE, [Monomial.from_map(ABCDE, m) for m in maps]),
    st.lists(
        st.dictionaries(st.integers(0, 4), st.integers(1, 4), min_size=1, max_size=3),
        min_size=1,
        max_size=6,
    ),
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip()
    docs = [json.loads(line) for line in out.splitlines()] if out else []
    return code, docs


def cycle(q: int, exponent: int = 2) -> str:
    return ", ".join(f"x{i}^{exponent}*x{(i + 1) % q}" for i in range(q))


def test_multiplicity_with_check(capsys):
    code, (doc,) = run_cli(capsys, "multiplicity", "--ideal", EXAMPLE, "--check")
    assert code == 0
    assert doc["result"]["multiplicity"] == 18
    assert doc["method"] == "structural"
    assert {c["method"]: c["value"] for c in doc["checks"]} == {"ps": 18, "oracle": 18}
    assert doc["agreement"] is True
    assert doc["classification"]["codim"] == 3


def test_method_selection_order(capsys):
    cases = {
        "x^2*y, x*y^2": "codim1",
        "x^2, y^3": "ci",
        "a*b*c^2, a*c^3": "codim1",
        "a^2*b*c, b^3*c, c^4, d^2*e^2, d*e*f, d*g^2": "stem",
        "x^2, y^3, x*y": "aci",
    }
    for text, expected in cases.items():
        _, (doc,) = run_cli(capsys, "multiplicity", "--ideal", text)
        assert doc["method"] == expected, text


def test_ps_fallback_method(capsys):
    # non-dominant and with no pairwise-coprime subset of size codim
    _, (doc,) = run_cli(capsys, "multiplicity", "--ideal", "a^2*b, a*b^2, b*c, a*c")
    assert doc["method"] == "ps"


def test_forced_method_hypothesis_violation(capsys):
    code, _ = run_cli(capsys, "multiplicity", "--ideal", "x^2, x*y", "--method", "ci")
    assert code == 2


def test_forced_structural_method_rejects_a_non_dominant_ideal_first(capsys):
    # dominance is checked first: the depth-first split search may still be exponential
    started = time.perf_counter()
    code = cli.main(["multiplicity", "--ideal", cycle(24, exponent=1), "--method", "structural"])
    captured = capsys.readouterr()
    assert time.perf_counter() - started < 0.5
    assert code == 2 and captured.out == ""
    assert captured.err == "multmon: error: the structural formula requires a dominant ideal\n"


def test_forced_quadratic_method(capsys):
    text = "a*b, a*c, d*e"  # quadratic dominant
    code, (doc,) = run_cli(capsys, "multiplicity", "--ideal", text, "--method", "quadratic")
    _, (consensus,) = run_cli(capsys, "verify", "--ideal", text)
    assert code == 0 and doc["method"] == "quadratic"
    assert doc["result"]["multiplicity"] == consensus["result"]["methods"]["quadratic"] == 2

    code, docs = run_cli(capsys, "multiplicity", "--ideal", "x^2, y^3", "--method", "quadratic")
    assert code == 2 and docs == []


def test_codim_command(capsys):
    code, (doc,) = run_cli(capsys, "codim", "--ideal", EXAMPLE)
    assert code == 0 and doc["result"]["codim"] == 3


def test_classify_command(capsys):
    code, (doc,) = run_cli(capsys, "classify", "--ideal", "a^2, b^3, a*b")
    assert code == 0
    assert doc["classification"]["dominant"] is False
    assert doc["result"]["taylor_minimal"] is False

    code, (doc,) = run_cli(capsys, "classify", "--ideal", "a^2*b, a*b^3*c, b*c^2")
    assert doc["classification"]["dominant"] is True
    assert doc["result"]["taylor_minimal"] is True
    assert set(doc["classification"]["dominant_witnesses"]) == {"a", "b", "c"}


def test_classify_above_the_taylor_cap(capsys):
    # minimality is dominance, so it has no generator cap (it was null above q = 20)
    for text, minimal in ((cycle(21), True), (cycle(21, exponent=1), False)):
        started = time.perf_counter()
        code, (doc,) = run_cli(capsys, "classify", "--ideal", text)
        assert time.perf_counter() - started < 2
        assert code == 0 and doc["result"]["taylor_minimal"] is minimal, text


def test_auto_split_search_above_the_taylor_cap(capsys):
    # an odd cycle has no split, and the split search scanned C(27, 14) subsets (32 s)
    started = time.perf_counter()
    code, docs = run_cli(capsys, "multiplicity", "--ideal", cycle(27))
    assert time.perf_counter() - started < 1
    assert code == 4 and docs == []
    # cycle 30 sums 2^15 free-part subsets: 2.4 s while each read every ring variable
    for q, bound in ((24, 2), (30, 1.5)):
        started = time.perf_counter()
        code, (doc,) = run_cli(capsys, "multiplicity", "--ideal", cycle(q))
        assert time.perf_counter() - started < bound
        assert code == 0, q
        assert doc["method"] == "structural" and doc["result"]["multiplicity"] == 2, q


def test_betti_command_and_unsupported_exit(capsys):
    code, (doc,) = run_cli(capsys, "betti", "--ideal", "x^2, y^3")
    assert code == 0
    assert doc["result"]["ranks"] == [1, 2, 1]

    code, docs = run_cli(capsys, "betti", "--ideal", "a^2, b^3, a*b")
    assert code == 3 and docs == []


def test_taylor_command(capsys):
    code, (doc,) = run_cli(capsys, "taylor", "--ideal", "x^2, y^3")
    assert code == 0
    assert doc["result"]["ranks"] == [1, 2, 1]
    top = doc["result"]["faces"][-1]
    assert top["mdeg"] == "x^2*y^3" and top["hdeg"] == 2


def _reference_documents(ideal) -> tuple[dict, dict]:
    """`betti` and `taylor` results built from one `Monomial` per face, an `lcm_all` of its members."""
    q = ideal.q
    lcms = [lcm_all(ideal.ring, (g for i, g in enumerate(ideal.gens) if mask >> i & 1)) for mask in range(1 << q)]
    table: dict[tuple[int, Monomial], int] = {}
    for mask, m in enumerate(lcms):
        key = (bin(mask).count("1"), m)
        table[key] = table.get(key, 0) + 1
    entries = sorted(
        (
            {"hdeg": i, "mdeg": str(m), "degree": m.degree, "count": c}
            for (i, m), c in table.items()
        ),
        key=lambda e: (e["hdeg"], e["degree"], e["mdeg"]),
    )
    graded: dict[tuple[int, int], int] = {}
    for e in entries:
        graded[e["hdeg"], e["degree"]] = graded.get((e["hdeg"], e["degree"]), 0) + e["count"]
    ranks = [0] * (q + 1)
    for (i, _), c in graded.items():
        ranks[i] += c
    betti = {
        "entries": entries,
        "graded": [{"hdeg": i, "degree": d, "count": c} for (i, d), c in sorted(graded.items())],
        "ranks": ranks,
    }
    faces = []
    for mask in sorted(range(1 << q), key=lambda m: (bin(m).count("1"), m)):
        members = [i for i in range(q) if mask >> i & 1]
        m = lcms[mask]
        faces.append({"members": members, "hdeg": len(members), "mdeg": str(m), "degree": m.degree})
    return betti, {"ranks": ranks, "faces": faces}


def _text_order_differs(entries) -> int:
    """How many (hdeg, degree) runs list their labels in another order than by exponent."""

    def by_exponent(label):
        return [(name, int(e or 1)) for name, _, e in (t.partition("^") for t in label.split("*"))]

    runs = groupby(entries, key=lambda e: (e["hdeg"], e["degree"]))
    labels = ([e["mdeg"] for e in run] for _, run in runs)
    return sum(run != sorted(run, key=by_exponent) for run in labels)


def test_betti_and_taylor_documents_match_a_per_face_reference(capsys):
    # Byte for byte: stdout is `json.dumps` of the document with the reference result.
    # Dominant by a private variable v_1 .. v_12 with exponent 1, 2, 9-14 or past 2^16
    # (32-bit fields); shared exponents 9 and 10 are common, so faces of one (hdeg,
    # degree) run differ in them and x^10 sorts before x^9 as text.  The explicit
    # order is shuffled and names one variable no generator uses.  At q = 1 the
    # empty face's label is "1".
    rng = random.Random(4242)
    inverted = 0
    for q in range(1, 13):
        for _ in range(3):
            shared = [f"s{i}" for i in range(rng.randint(1, 4))]
            gens = []
            for i in range(q):
                factors = [f"v_{i + 1}^{rng.choice((1, 2, 9, 10, 11, 14, 65536, 65545))}"]
                k = rng.randint(0, min(2, len(shared)))
                exponents = (rng.randint(1, 12), 9, 10, 70000)
                factors += [f"{v}^{rng.choice(exponents)}" for v in rng.sample(shared, k)]
                rng.shuffle(factors)
                gens.append("*".join(factors))
            names = shared + [f"v_{i + 1}" for i in range(q)] + ["unused"]
            rng.shuffle(names)
            text = ", ".join(gens)
            ideal = parse_ideal(text, names)
            assert is_dominant(ideal) and ideal.q == q
            betti, taylor = _reference_documents(ideal)
            inverted += _text_order_differs(betti["entries"])
            for command, expected in (("betti", betti), ("taylor", taylor)):
                code = cli.main([command, "--ideal", text, "--vars", ",".join(names)])
                out = capsys.readouterr().out
                document = json.loads(out)
                document["result"] = expected
                assert code == 0, (command, text, names)
                assert out == json.dumps(document) + "\n", (command, text, names)
    assert inverted  # some runs put x^10 before x^9


def test_taylor_documents_of_non_dominant_ideals_match_a_per_face_reference(capsys):
    # Square-free cycles up to q = 12 and seeded random draws up to q = 10: faces of one
    # hdeg share labels and degrees.  Plain stdout is byte for byte `json.dumps` of the
    # document with the reference result; --pretty lists the reference faces in order.
    rng = random.Random(1729)
    draws = (random_ideal(rng, max_gens=20, max_vars=10, max_exp=4) for _ in range(60))
    ideals = [parse_ideal(cycle(q, 1)) for q in range(3, 13)]
    ideals += [ideal for ideal in draws if ideal.q <= 10 and not is_dominant(ideal)]
    assert max(ideal.q for ideal in ideals[10:]) == 10
    shared = 0
    for ideal in ideals:
        text, names = str(ideal), list(ideal.ring.names)
        ideal = parse_ideal(text, names)
        assert not is_dominant(ideal), text
        taylor = _reference_documents(ideal)[1]
        faces = taylor["faces"]
        shared += len({(f["hdeg"], f["mdeg"]) for f in faces}) < len(faces)
        argv = ["taylor", "--ideal", text, "--vars", ",".join(names)]
        assert cli.main(argv) == 0, text
        out = capsys.readouterr().out
        document = json.loads(out)
        document["result"] = taylor
        assert out == json.dumps(document) + "\n", text
        assert cli.main([*argv, "--pretty"]) == 0, text
        lines = capsys.readouterr().out.split("\n")
        start = lines.index("faces (members, hdeg, mdeg):")
        assert lines[start - 1] == f"ranks: {taylor['ranks']}", text
        expected = [
            f"  {'[' + ', '.join(map(str, f['members'])) + ']':<16} {f['hdeg']:>3}  {f['mdeg']}"
            for f in faces
        ]
        assert lines[start + 1 : -2] == expected, text
        assert re.fullmatch(r"time: [0-9.]+ ms", lines[-2]) and lines[-1] == "", text
    assert shared > len(ideals) // 2


def _betti_runs_by_a_full_sort(resolution):
    """Reference runs: every label of a level sorted, then a stable sort on degree, then grouped."""
    degrees, labels = resolution.degrees, resolution.labels
    q = resolution.ideal.q
    for hdeg in range(q + 1):
        faces = sorted((m for m in range(1 << q) if bin(m).count("1") == hdeg), key=labels.__getitem__)
        faces.sort(key=degrees.__getitem__)
        for d, run in groupby(faces, degrees.__getitem__):
            yield hdeg, d, [labels[m] for m in run]


_randoms = st.randoms(use_true_random=False)
dominant_ideals = st.one_of(
    _randoms.map(lambda rng: random_stem_ideal(rng, max_total_gens=10)),
    # square-free stems: within a block every face of one size has one degree
    _randoms.map(lambda rng: random_stem_ideal(rng, max_exp=1, max_total_gens=10)),
    _randoms.map(random_quadratic_dominant),
    _randoms.map(random_dominant_with_split),
    _randoms.map(lambda rng: random_aci(rng, dominant=True)),
)


@settings(max_examples=120, deadline=None)
@given(dominant_ideals)
def test_betti_runs_keep_the_order_of_a_full_label_sort(ideal):
    assert is_dominant(ideal)
    q, resolution = ideal.q, minimal_resolution(ideal)
    runs = list(cli._betti_runs(resolution))
    assert runs == list(_betti_runs_by_a_full_sort(resolution))
    code, out = _quiet_main("betti", "--ideal", str(ideal), "--vars", ",".join(ideal.ring.names))
    assert code == 0
    graded = json.loads(out)["result"]["graded"]
    assert [(g["hdeg"], g["degree"], g["count"]) for g in graded] == [(h, d, len(r)) for h, d, r in runs]
    for hdeg in range(q + 1):
        assert sum(g["count"] for g in graded if g["hdeg"] == hdeg) == comb(q, hdeg)


def test_taylor_renders_faster_than_one_fstring_per_face(capsys, monkeypatch):
    # The q = 16 cycle with its resolution computed once: the whole call must beat one
    # f-string per face over the same faces, both timed here (interleaved, each going first
    # in turn, best of 5 each), so a burst of host load falls on both.  Both write their text
    # to the captured `sys.stdout`, so each pays for encoding its 5 MB into pytest's buffer
    # (about 10 ms), not the call alone.  The join over the face table took 0.56-0.86 of the
    # f-strings' time; one f-string per face in `cli` took 1.08-1.46, and the join over
    # member texts rebuilt per call 1.10-1.34.
    text = cycle(16)
    resolution = taylor_resolution(parse_ideal(text))
    monkeypatch.setattr(cli, "taylor_resolution", lambda ideal: resolution)
    labels, degrees = resolution.labels, resolution.degrees
    levels = [[m for m in range(1 << 16) if m.bit_count() == h] for h in range(17)]
    members = {mask: ", ".join(map(str, bits(mask))) for mask in range(1 << 16)}

    def per_face():
        sys.stdout.writelines(", ".join(
            f'{{"members": [{members[m]}], "hdeg": {h}, "mdeg": "{labels[m]}", "degree": {degrees[m]}}}'
            for m in masks
        ) for h, masks in enumerate(levels))

    def call():
        cli.main(["taylor", "--ideal", text])

    times = {call: [], per_face: []}
    for k in range(5):
        for run in (call, per_face) if k % 2 else (per_face, call):
            started = time.perf_counter()
            run()
            times[run].append(time.perf_counter() - started)
            assert capsys.readouterr().out.count('"members"') == 1 << 16
    called = min(times[call])
    assert called < min(times[per_face]), f"{called:.3f} s"


def test_taylor_renders_with_no_python_call_per_face(capsys, monkeypatch):
    # the wall-clock comparison above, counted instead: a Python-level call per face (a
    # function, or a generator resumed) would show as at least 2^16 `call` events
    text = cycle(16)
    resolution = taylor_resolution(parse_ideal(text))
    monkeypatch.setattr(cli, "taylor_resolution", lambda ideal: resolution)
    calls = [0]

    def count(frame, event, arg):
        calls[0] += event == "call"

    sys.setprofile(count)
    try:
        cli.main(["taylor", "--ideal", text])
    finally:
        sys.setprofile(None)
    assert capsys.readouterr().out.count('"members"') == 1 << 16
    assert calls[0] < 1 << 12, calls[0]


def test_labels_need_no_json_escaping(capsys):
    # `betti` and `taylor` write each label into the JSON text as it is: a name
    # is built from these characters only, and an exponent from ASCII digits
    alphabet = string.ascii_letters + string.digits + "_"
    assert json.dumps(alphabet + "*^") == f'"{alphabet}*^"'
    others = (chr(c) for c in range(0x10000) if chr(c) not in alphabet)

    def is_table_name(name):
        try:
            VariableTable((name,))
        except ValueError:
            return False
        return True

    assert is_table_name("a" + alphabet)
    assert not any(is_table_name("a" + c) for c in others)
    for name in ('a"b', "a\\b", "\u00e9"):
        assert cli.main(["betti", "--ideal", f"{name}^2"]) == 1
        assert cli.main(["betti", "--ideal", "x^2", "--vars", f"x,{name}"]) == 1
    assert capsys.readouterr().out == ""


def test_structural_sum_is_capped_under_a_small_address_space():
    # cycle 60 leaves 30 free generators, whose 2^30 subset lcms ended in a MemoryError
    # traceback (exit 1) under this 1 GiB cap and in a SIGKILL without it
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
        "from multmon.cli import run\n"
        "run()\n"
    )
    argv = [sys.executable, "-c", child, "multiplicity", "--ideal", cycle(60)]
    started = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - started < 5
    assert done.returncode == 4 and done.stdout == "", done.stderr
    assert "subset lcms of 30 generators exceed the q <= 24 cap" in done.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_closed_stdout_ends_the_console_script_by_sigpipe():
    # a reader that stops early (`| head -c 20`) is not an engine bug: no traceback, no exit 5
    child = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
        "from multmon.cli import run\n"
        "run()\n"
    )
    argv = [sys.executable, "-c", child, "betti", "--ideal", cycle(16)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as done:
        head = done.stdout.read(20)
        done.stdout.close()
        stderr = done.stderr.read()
        code = done.wait(timeout=60)
    assert head == b'{"command": "betti",'
    assert code == -signal.SIGPIPE and stderr == b"", (code, stderr.decode())


def test_the_cli_runs_without_importing_dataclasses_or_inspect():
    # every process pays `import multmon.cli` before its first answer, and these two were
    # half of it; `-S` keeps a site-packages `.pth` import from loading them first.  A call
    # builds only its command's parser, and only `verify --random` loads the generator.
    child = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
        "from multmon.cli import _build_parser, _command_parser, main\n"
        "code = main(['verify', '--ideal', 'a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2'])\n"
        "loaded = {'dataclasses', 'inspect', 'random', 'multmon.generate'} & set(sys.modules)\n"
        "built = _build_parser.cache_info().currsize, _command_parser.cache_info().currsize\n"
        "print(code, sorted(loaded), *built)\n"
    )
    argv = [sys.executable, "-I", "-S", "-c", child]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert done.stdout.splitlines()[-1] == "0 [] 0 1", done.stdout


def test_taylor_cap_exit(capsys):
    text = ", ".join(f"x{i}^2" for i in range(21))
    code, docs = run_cli(capsys, "taylor", "--ideal", text)
    assert code == 4 and docs == []


def test_many_support_components_answer_fast(capsys):
    # codim is searched per component, so 13 disjoint triangles cost 13 small searches
    text = ", ".join(f"a{i}*b{i}, b{i}*c{i}, a{i}*c{i}" for i in range(13))
    started = time.perf_counter()
    code, (doc,) = run_cli(capsys, "codim", "--ideal", text)
    assert code == 0 and doc["result"]["codim"] == 26
    assert time.perf_counter() - started < 2

    started = time.perf_counter()
    code = cli.main(["multiplicity", "--ideal", text])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "39 generators exceeds the q <= 24 cap" in captured.err
    assert time.perf_counter() - started < 2


def test_diagram_command(capsys):
    code, (doc,) = run_cli(capsys, "diagram", "--ideal", "a^2*b*c, d*g^2")
    assert code == 0
    sets = {entry["generator"]: entry["labels"] for entry in doc["result"]["sets"]}
    assert sets["a^2*b*c"] == [
        {"var": "a", "slot": 1},
        {"var": "a", "slot": 2},
        {"var": "b", "slot": 1},
        {"var": "c", "slot": 1},
    ]
    assert {(l["var"], l["slot"]) for l in sets["d*g^2"]} == {("d", 1), ("g", 1), ("g", 2)}


def test_diagram_is_capped_before_any_label_is_built(capsys):
    # one label per unit of degree: this exponent would ask for 2^31 of them
    started = time.perf_counter()
    code = cli.main(["diagram", "--ideal", "x^2147483648"])
    captured = capsys.readouterr()
    assert time.perf_counter() - started < 1
    assert code == 4 and captured.out == ""
    assert captured.err.endswith("polarization of 2147483648 labels exceeds the 100000 cap\n")


def test_regularity_command(capsys):
    code, (doc,) = run_cli(capsys, "regularity", "--ideal", "a*b, a*c, d*e")
    assert code == 0
    assert doc["result"]["regularity"] == 2
    assert doc["method"] == "quadratic"
    assert doc["checks"] == [{"method": "taylor", "value": 2}]

    code, (doc,) = run_cli(capsys, "regularity", "--ideal", "x^2, y^3")
    assert doc["result"]["regularity"] == 3 and doc["method"] == "taylor"

    code, _ = run_cli(capsys, "regularity", "--ideal", "a^2, b^3, a*b")
    assert code == 3


def test_regularity_above_the_taylor_cap(capsys):
    # the full face attains max(deg - hdeg); q > 20 exited 4 before
    started = time.perf_counter()
    code, (doc,) = run_cli(capsys, "regularity", "--ideal", cycle(25))
    assert time.perf_counter() - started < 2
    assert code == 0 and doc["method"] == "taylor" and doc["result"]["regularity"] == 25

    started = time.perf_counter()
    text = ", ".join(f"a{i}*b{i}" for i in range(21))
    code, (doc,) = run_cli(capsys, "regularity", "--ideal", text)
    assert time.perf_counter() - started < 2
    assert code == 0 and doc["method"] == "quadratic" and doc["result"]["regularity"] == 21
    assert doc["checks"] == [{"method": "taylor", "value": 21}] and doc["agreement"] is True


def test_verify_command(capsys):
    code, (doc,) = run_cli(capsys, "verify", "--ideal", EXAMPLE)
    assert code == 0
    assert doc["agreement"] is True
    methods = doc["result"]["methods"]
    assert methods["ps"] == methods["oracle"] == methods["structural"] == 18


def test_verify_agrees_on_every_bundled_golden_input(capsys):
    code, docs = run_cli(capsys, "verify", "--file", str(GOLDEN))
    assert code == 0
    assert len(docs) == 10
    for doc in docs:
        assert doc["agreement"] is True, doc["input"]["text"]
        assert len(doc["result"]["methods"]) >= 2


def test_verify_random(capsys):
    code, (doc,) = run_cli(capsys, "verify", "--random", "--seed", "3", "--cases", "25")
    assert code == 0
    assert doc["agreement"] is True and doc["cases"] == 25 and doc["failures"] == []


@pytest.mark.parametrize("given", [["--ideal", "x*y"], ["--file", "/nonexistent"], ["--vars", "x,y"]])
def test_verify_random_refuses_an_ideal_a_file_or_a_variable_list(given, capsys):
    # --random draws its own ideals: any of these used to be ignored, with exit 0
    code = cli.main(["verify", "--random", "--cases", "2", *given])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"multmon: error: --random and {given[0]} are mutually exclusive\n"


def test_verify_random_pretty(capsys):
    code = cli.main(["verify", "--random", "--seed", "3", "--cases", "5", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0 and "agreement: True" in out


def test_verify_random_disagreement_lists_every_case(capsys, monkeypatch):
    monkeypatch.setattr(cli, "multiplicity_associativity", lambda ideal: 999)
    code, (doc,) = run_cli(capsys, "verify", "--random", "--seed", "0", "--cases", "2")
    assert code == 5 and doc["agreement"] is False
    assert [failure["case"] for failure in doc["failures"]] == [0, 1]
    for failure in doc["failures"]:
        assert set(failure) == {"case", "ideal", "methods"}
        methods = failure["methods"]
        assert methods["oracle"] == 999 and methods["ps"] != 999, failure["ideal"]

    code = cli.main(["verify", "--random", "--seed", "0", "--cases", "2", "--pretty"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 5
    assert lines == [
        "random verification: seed=0 cases=2",
        *(f"  disagreement on {f['ideal']}: {f['methods']}" for f in doc["failures"]),
        "agreement: False",
    ]


def test_parse_error_exit(capsys):
    code, docs = run_cli(capsys, "codim", "--ideal", "x^0")
    assert code == 1 and docs == []


def test_vars_flag(capsys):
    code, (doc,) = run_cli(capsys, "codim", "--ideal", "b*a", "--vars", "a,b")
    assert code == 0 and doc["input"]["vars"] == ["a", "b"]
    code, _ = run_cli(capsys, "codim", "--ideal", "c", "--vars", "a,b")
    assert code == 1


def test_usage_errors(capsys):
    assert cli.main(["codim"]) == 1  # no ideal
    capsys.readouterr()
    assert cli.main(["codim", "--ideal", "x", "--file", "nope"]) == 1
    capsys.readouterr()
    assert cli.main(["codim", "--ideal", "a", "--vars", "a,a"]) == 1
    capsys.readouterr()
    assert cli.main(["codim", "--ideal", "a", "--vars", "a,1b"]) == 1
    assert capsys.readouterr().err == "multmon: error: --vars entry '1b' is not a valid variable name\n"
    assert cli.main(["verify", "--random", "--cases", "0"]) == 1
    capsys.readouterr()
    for command in cli.COMMANDS:  # only multiplicity reads --check
        if command != "multiplicity":
            assert cli.main([command, "--ideal", "x^2, y^3", "--check"]) == 1, command
            assert "unrecognized arguments: --check" in capsys.readouterr().err


def test_batch_mode_preserves_order_and_reports_errors(tmp_path, capsys):
    batch = tmp_path / "ideals.txt"
    batch.write_text(
        "# golden inputs\n"
        "x^2, y^3\n"
        "\n"
        "x^0\n"
        "a*b, a*c, d*e\n"
    )
    code, docs = run_cli(capsys, "multiplicity", "--file", str(batch))
    assert code == 1  # first failing line decides
    assert len(docs) == 3
    assert docs[0]["result"]["multiplicity"] == 6
    assert docs[1]["error"]["code"] == "zero-exponent"
    assert docs[2]["result"]["multiplicity"] == 2


def test_batch_mode_checks_vars_once(tmp_path, capsys):
    batch = tmp_path / "ideals.txt"
    batch.write_text("a^2\nb^3\na*b\n")
    code = cli.main(["codim", "--file", str(batch), "--vars", "a,a"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "multmon: error: --vars entries must be distinct\n"
    code, docs = run_cli(capsys, "codim", "--file", str(batch), "--vars", "b,a")
    assert code == 0 and [doc["input"]["vars"] for doc in docs] == [["b", "a"]] * 3


def test_batch_mode_places_an_undeclared_variable(tmp_path, capsys):
    batch = tmp_path / "ideals.txt"
    batch.write_text("a*b\n  a*b, c^2  # c is not declared\n")
    code, docs = run_cli(capsys, "codim", "--file", str(batch), "--vars", "a,b")
    assert code == 1 and docs[0]["result"]["codim"] == 1
    error = docs[1]["error"]
    assert error["code"] == "unknown-variable" and error["exit_code"] == 1
    assert (error["line"], error["column"]) == (1, 6)  # on the stripped line "a*b, c^2"


def test_batch_mode_drops_a_leading_byte_order_mark(tmp_path, capsys):
    # the mark stayed in line 1: a syntax error at column 1, exit 1
    batch = tmp_path / "ideals.txt"
    batch.write_bytes("\ufeffx^2, y^3\nz^4\n".encode("utf-8"))
    code, docs = run_cli(capsys, "codim", "--file", str(batch))
    assert code == 0 and [d["input"]["text"] for d in docs] == ["x^2, y^3", "z^4"]
    assert [d["result"]["codim"] for d in docs] == [2, 1]

    batch.write_bytes("x^2, y^3\n\ufeffz^4\n".encode("utf-8"))  # elsewhere it is input
    code, docs = run_cli(capsys, "codim", "--file", str(batch))
    assert code == 1 and docs[1]["error"]["code"] == "syntax"


def test_batch_mode_refuses_an_unreadable_file(tmp_path, capsys):
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes(b"x^2, \xff")
    for path in (tmp_path / "missing.txt", undecodable):
        code = cli.main(["codim", "--file", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", path
        assert captured.err.startswith("multmon: error: cannot read batch file: "), path


def test_batch_mode_survives_an_unexpected_exception(tmp_path, capsys, monkeypatch):
    original = cli.e_codim1

    def broken(ideal):  # `auto` tries the gcd formula on every line
        if cli.codim(ideal) == 1:
            raise ZeroDivisionError("injected")
        return original(ideal)

    monkeypatch.setattr(cli, "e_codim1", broken)
    batch = tmp_path / "ideals.txt"
    batch.write_text("x^2, y^3\nx^2*y, x*y^2\na*b, a*c, d*e\n")
    code, docs = run_cli(capsys, "multiplicity", "--file", str(batch))
    assert code == 5
    assert len(docs) == 3
    assert docs[0]["result"]["multiplicity"] == 6
    assert docs[1]["error"] == {"code": "ZeroDivisionError", "message": "injected", "exit_code": 5}
    assert docs[1]["input"] == {"text": "x^2*y, x*y^2"}
    assert docs[2]["result"]["multiplicity"] == 2


def test_single_ideal_mode_exits_five_on_an_unexpected_exception(capsys, monkeypatch):
    def broken(ideal):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(cli, "e_codim1", broken)
    code = cli.main(["multiplicity", "--ideal", "x^2, y^3"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith("ZeroDivisionError: injected\n")


def test_betti_and_taylor_batches_write_one_document_per_line(tmp_path, capsys):
    # dominant, non-dominant, unparsable; only `betti` refuses the non-dominant line
    batch = tmp_path / "ideals.txt"
    batch.write_text("a^2*b, b^2*c_1, c_1^10*a\na^2, b^3, a*b\na*\n")
    for command, key, status in (("betti", "entries", 3), ("taylor", "faces", 1)):
        code = cli.main([command, "--file", str(batch)])
        lines = capsys.readouterr().out.split("\n")
        assert code == status  # the first line to fail decides
        assert lines[3:] == [""]
        first, second, third = map(json.loads, lines[:3])
        assert len(first["result"][key]) == 8 and first["result"]["ranks"] == [1, 3, 3, 1]
        if command == "betti":
            assert second["error"]["exit_code"] == 3
        else:
            assert [f["mdeg"] for f in second["result"]["faces"]][-1] == "a^2*b^3"
        assert third["error"]["exit_code"] == 1


PRETTY_Q3 = {
    "betti": """ideal: a^2*b, b^2*c_1, a*c_1^10
classification: codim=2 dominant=True ci=False
betti entries (hdeg, mdeg, count):
    0  1                        1
    1  a^2*b                    1
    1  b^2*c_1                  1
    1  a*c_1^10                 1
    2  a^2*b^2*c_1              1
    2  a*b^2*c_1^10             1
    2  a^2*b*c_1^10             1
    3  a^2*b^2*c_1^10           1
ranks: [1, 3, 3, 1]
""",
    "taylor": """ideal: a^2*b, b^2*c_1, a*c_1^10
classification: codim=2 dominant=True ci=False
ranks: [1, 3, 3, 1]
faces (members, hdeg, mdeg):
  []                 0  1
  [0]                1  a^2*b
  [1]                1  b^2*c_1
  [2]                1  a*c_1^10
  [0, 1]             2  a^2*b^2*c_1
  [0, 2]             2  a^2*b*c_1^10
  [1, 2]             2  a*b^2*c_1^10
  [0, 1, 2]          3  a^2*b^2*c_1^10
""",
}


def test_betti_and_taylor_pretty_rendering(capsys):
    for command, expected in PRETTY_Q3.items():
        assert cli.main([command, "--ideal", "a^2*b, b^2*c_1, c_1^10*a", "--pretty"]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(re.escape(expected) + r"time: [0-9.]+ ms\n", out), out


def test_pretty_rendering(capsys):
    code = cli.main(["multiplicity", "--ideal", "x^2, y^3", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert "multiplicity = 6" in out
    code = cli.main(["verify", "--ideal", "x^2, y^3", "--pretty"])
    out = capsys.readouterr().out
    assert "agreement: True" in out


def test_check_disagreement_exits_five(capsys, monkeypatch):
    monkeypatch.setattr(cli, "multiplicity_associativity", lambda ideal: 999)
    code, (doc,) = run_cli(capsys, "multiplicity", "--ideal", "x^2, y^3", "--check")
    assert code == 5
    assert doc["agreement"] is False


def test_ps_exits_five_on_a_codim_the_numerator_contradicts(capsys, monkeypatch):
    # the engine checks the codimension it is given: K must vanish to exactly that order at t = 1
    true_codim = taylor.codim
    monkeypatch.setattr(taylor, "codim", lambda ideal: true_codim(ideal) + 1)
    code = cli.main(["multiplicity", "--ideal", EXAMPLE, "--method", "ps"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == "multmon: error: power sums P(1..4) are not those of codim 4 and an e >= 1\n"


def test_check_reuses_the_answer_of_the_chosen_route(capsys, monkeypatch):
    # `--method oracle --check` checks the oracle's own answer against ps: one oracle run, not two
    calls, oracle = [], cli.multiplicity_associativity
    monkeypatch.setattr(cli, "multiplicity_associativity", lambda i: calls.append(i) or oracle(i))
    text = "x^100, y^100, z^30, x*y*z"
    code, (doc,) = run_cli(capsys, "multiplicity", "--ideal", text, "--method", "oracle", "--check")
    assert code == 0 and doc["method"] == "oracle" and doc["agreement"] is True
    assert doc["checks"] == [{"method": "ps", "value": 15771}, {"method": "oracle", "value": 15771}]
    assert len(calls) == 1


def test_regularity_disagreement_exits_five_with_its_document(capsys, monkeypatch):
    original = cli.reg_quadratic_dominant
    monkeypatch.setattr(cli, "reg_quadratic_dominant", lambda ideal: original(ideal) + 1)
    code, (doc,) = run_cli(capsys, "regularity", "--ideal", "a*b, a*c, d*e")
    assert code == 5
    assert doc["result"]["regularity"] == 3 and doc["method"] == "quadratic"
    assert doc["checks"] == [{"method": "taylor", "value": 2}] and doc["agreement"] is False


def test_minimalization_notice_in_document(capsys):
    _, (doc,) = run_cli(capsys, "multiplicity", "--ideal", "x^2,x^3")
    assert doc["input"]["notices"]
    assert doc["input"]["ideal"] == "x^2"


def test_readme_shows_every_command():
    # CI runs each `$ multmon ...` line of the README through the console script
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    shown = set(re.findall(r"(?m)^\$ multmon (\w+)", readme))
    assert set(cli.COMMANDS) <= shown, set(cli.COMMANDS) - shown


def test_readme_library_example_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    (block,) = re.findall(r"(?s)```python\n(.*?)```", library.split("\n## ", 1)[0])
    exec(compile(block, "README.md", "exec"), {})


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
    assert cli._command_parser("betti") is cli._command_parser("betti")


_HELP = (("-h", "--help"), "help", "==SUPPRESS==", None, "show this help message and exit")
_COMMON_ACTIONS = [
    _HELP,
    (("--ideal",), "ideal", None, None, 'ideal text, e.g. "a^2*b, b^3*c"'),
    (("--file",), "file", None, None, "batch file: one ideal per line, '#' comments"),
    (("--vars",), "vars", None, None, "explicit comma-separated variable order"),
    (("--json",), "json", False, None, "structured output (default)"),
    (("--pretty",), "pretty", False, None, "human-readable rendering"),
]
# (option strings, dest, default, choices, help) of every parser's arguments, read at the
# commit before the command table; argparse's help layout varies by version, these do not
_ACTIONS = {
    None: [
        _HELP,
        (("--version",), "version", "==SUPPRESS==", None, "show program's version number and exit"),
        ((), "command", None, ("multiplicity", "codim", "classify", "betti", "taylor", "diagram",
                               "verify", "regularity"), None),
    ],
    "multiplicity": [
        *_COMMON_ACTIONS,
        (("--method",), "method", "auto", ("auto", "ps", "oracle", "codim1", "ci", "stem", "aci",
                                           "structural", "quadratic", "recurrence"), None),
        (("--check",), "check", False, None, "cross-check multiplicity with engine and oracle"),
    ],
    "codim": _COMMON_ACTIONS,
    "classify": _COMMON_ACTIONS,
    "betti": _COMMON_ACTIONS,
    "taylor": _COMMON_ACTIONS,
    "diagram": _COMMON_ACTIONS,
    "verify": [
        *_COMMON_ACTIONS,
        (("--random",), "random", False, None, "verify seeded random ideals"),
        (("--seed",), "seed", 0, None, "seed for --random"),
        (("--cases",), "cases", 100, None, "case count for --random"),
    ],
    "regularity": _COMMON_ACTIONS,
}


def test_every_parser_keeps_its_arguments():
    assert [None, *cli.COMMANDS] == list(_ACTIONS)
    for name, expected in _ACTIONS.items():
        parser = cli._build_parser() if name is None else cli._command_parser(name)
        actions = [(tuple(a.option_strings), a.dest, a.default,
                    None if a.choices is None else tuple(a.choices), a.help) for a in parser._actions]
        assert actions == expected, name


def test_top_level_arguments_keep_their_outcomes(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0 and capsys.readouterr().out == f"multmon {__version__}\n"
    assert cli.main([]) == 1
    assert "the following arguments are required: command" in capsys.readouterr().err
    assert cli.main(["nosuch", "--ideal", "x"]) == 1
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        cli.main(["betti", "-h"])
    assert info.value.code == 0 and capsys.readouterr().out.startswith("usage: multmon betti")
    assert cli.main(["multiplicity", "--ideal", "x", "--method", "bogus"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_a_list_without_a_command_first_meets_the_top_level_parser(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["-h"])
    assert info.value.code == 0 and "{" + ",".join(cli.COMMANDS) + "}" in capsys.readouterr().out
    # it names the commands only: what follows one is not that command's options
    assert cli.main(["--pretty", "codim", "--ideal", "x"]) == 1
    assert "unrecognized arguments: --pretty --ideal x" in capsys.readouterr().err
    assert cli.main(["--", "codim"]) == 1
    assert "provide an ideal with --ideal or --file" in capsys.readouterr().err


_COMMON = {"ideal": None, "file": None, "vars": None, "json": False, "pretty": False}

# The namespace the top-level parser, with one subparser per command, gave for each list below,
# by its command; each command's own parser must give the same, `command` included.
_PARSED = {
    "multiplicity": {"command": "multiplicity", **_COMMON, "ideal": "x^2, y^3", "pretty": True,
                     "method": "ps", "check": True},
    "codim": {"command": "codim", **_COMMON, "file": "ideals.txt", "vars": "a,b"},
    "classify": {"command": "classify", **_COMMON, "ideal": "a*b", "json": True},
    "betti": {"command": "betti", **_COMMON, "ideal": "a*b, c", "pretty": True},
    "taylor": {"command": "taylor", **_COMMON, "ideal": "x", "vars": "x,y"},
    "diagram": {"command": "diagram", **_COMMON, "ideal": "a^2*b"},
    "verify": {"command": "verify", **_COMMON, "pretty": True, "random": True, "seed": 3, "cases": 5},
    "regularity": {"command": "regularity", **_COMMON, "ideal": "a*b", "vars": "b,a"},
}


@pytest.mark.parametrize("argv", [
    ["multiplicity", "--ideal", "x^2, y^3", "--method", "ps", "--check", "--pretty"],
    ["codim", "--file", "ideals.txt", "--vars", "a,b"],
    ["classify", "--ideal", "a*b", "--json"],
    ["betti", "--pretty", "--ideal", "a*b, c"],
    ["taylor", "--ideal", "x", "--vars", "x,y"],
    ["diagram", "--ideal", "a^2*b"],
    ["verify", "--random", "--seed", "3", "--cases", "5", "--pretty"],
    ["regularity", "--vars", "b,a", "--ideal", "a*b"],
])
def test_a_command_parses_to_the_namespace_of_the_top_level_parser(argv, monkeypatch):
    parsed = []
    monkeypatch.setattr(cli, "_dispatch", lambda args: parsed.append(args) or 0)
    assert cli.main(argv) == 0
    assert [vars(args) for args in parsed] == [_PARSED[argv[0]]]


def test_forced_method_does_not_leak_into_the_next_call(capsys):
    _, (forced,) = run_cli(capsys, "multiplicity", "--ideal", "x^2, y^3", "--method", "ps")
    _, (plain,) = run_cli(capsys, "multiplicity", "--ideal", "x^2, y^3")
    assert forced["method"] == "ps" and plain["method"] == "ci"


def test_summed_exponent_over_the_cap_is_a_parse_error(capsys, tmp_path):
    code = cli.main(["codim", "--ideal", "x^2147483648*x"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err and "2147483649" in captured.err

    batch = tmp_path / "ideals.txt"
    batch.write_text("x^2\nx^2147483648 * y * x\n")
    code, docs = run_cli(capsys, "codim", "--file", str(batch))
    assert code == 1 and len(docs) == 2
    error = docs[1]["error"]
    assert error["code"] == "exponent-too-large" and error["exit_code"] == 1
    assert (error["line"], error["column"]) == (1, 20)


def test_exponent_too_long_for_int_is_a_parse_error(capsys, tmp_path):
    digits = "0" * 20 + "9" * 5000  # past int()'s default limit on digit strings
    code = cli.main(["codim", "--ideal", f"x^{digits}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err and "5000 digits" in captured.err

    batch = tmp_path / "ideals.txt"
    batch.write_text(f"x^2\ny * x^{digits}\nx^0002147483648\n")
    code, docs = run_cli(capsys, "codim", "--file", str(batch))
    assert code == 1 and len(docs) == 3
    error = docs[1]["error"]
    assert error["code"] == "exponent-too-large" and error["exit_code"] == 1
    assert (error["line"], error["column"]) == (1, 7)
    assert docs[2]["result"]["codim"] == 1  # leading zeros do not count


def test_non_ascii_exponent_digits_are_a_parse_error(capsys, tmp_path):
    code = cli.main(["codim", "--ideal", "x^\u00b2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err and "line 1, column 3" in captured.err

    batch = tmp_path / "ideals.txt"
    batch.write_text("x^\u00b2\ny, x^\u0661\nx^2, y^3\n", encoding="utf-8")
    code, docs = run_cli(capsys, "codim", "--file", str(batch))
    assert code == 1 and len(docs) == 3
    for doc, column in zip(docs, (3, 6)):
        error = doc["error"]
        assert error["code"] == "syntax" and error["exit_code"] == 1
        assert (error["line"], error["column"]) == (1, column)
    assert docs[2]["result"]["codim"] == 2


def _golden_outputs() -> dict[str, dict]:
    """stdout and exit code of every command, plain and --pretty, over the golden batch.

    Timings are replaced by a fixed token so the snapshot is reproducible.
    """
    outputs = {}
    for command in cli.COMMANDS:
        for style in ("plain", "pretty"):
            argv = [command, "--file", str(GOLDEN)] + (["--pretty"] if style == "pretty" else [])
            code, out = _quiet_main(*argv)
            out = re.sub(r'"timing_ms": [^,}]+', '"timing_ms": "<ms>"', out)
            out = re.sub(r"(?m)^time: .* ms$", "time: <ms> ms", out)
            outputs[f"{command} {style}"] = {"exit_code": code, "stdout": out}
    return outputs


def test_cli_output_matches_the_golden_snapshot():
    # Regenerate after an intended output change: `python tests/test_cli.py`.
    expected = json.loads(GOLDEN_OUTPUTS.read_text(encoding="utf-8"))
    actual = _golden_outputs()
    assert actual.keys() == expected.keys()
    for key, value in expected.items():
        assert actual[key] == value, key


def _quiet_main(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(ideals)
def test_method_table_is_consistent(ideal):
    argv = ["multiplicity", "--ideal", str(ideal), "--vars", ",".join(ideal.ring.names)]
    expected = multiplicity_ps(ideal)
    answered = []
    for name, compute in cli.METHODS.items():
        try:
            value = compute(ideal)
        except HypothesisError:
            assert name not in ("ps", "oracle")
            assert _quiet_main(*argv, "--method", name) == (2, ""), name
        else:
            assert value == expected, name
            answered.append(name)
    auto = next(m for m in cli.AUTO_METHODS if m in answered)
    code, out = _quiet_main(*argv)
    assert code == 0 and json.loads(out)["method"] == auto
    code, out = _quiet_main("verify", *argv[1:])
    assert code == 0 and list(json.loads(out)["result"]["methods"]) == answered


if __name__ == "__main__":
    GOLDEN_OUTPUTS.write_text(json.dumps(_golden_outputs(), indent=1) + "\n", encoding="utf-8")
