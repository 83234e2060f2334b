import contextlib
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_weighted_attention, build_manifest, row_stochastic
from vtcomp.cli import main
from vtcomp.layout import CompressionPlan, InputLayout
from vtcomp.manifest import ENTRY_KEYS, MANIFEST_KEYS, ROW_SUM_TOL

LAYOUT = InputLayout(kind="image", system_range=(0, 2), visual_range=(2, 10), text_range=(10, 14))

# A key no manifest uses, renamed to the duplicated key after serialising.
DUPLICATE_SENTINEL = "\0duplicate"

# Every key some manifest object may hold.
KNOWN_KEYS = {*MANIFEST_KEYS, *ENTRY_KEYS, *InputLayout.__dataclass_fields__,
              *CompressionPlan.__dataclass_fields__}

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**63), 10**30, -(10**30)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def valid_manifest(tmp_path_factory):
    """A manifest with stage-1 inputs, one attention layer, decode rows and
    a schedule, plus its parsed JSON and its attention and decode-row
    payload bytes. The unmutated pipeline runs cleanly."""
    rng = np.random.default_rng(7)
    path = build_manifest(
        tmp_path_factory.mktemp("fuzz"),
        attention={4: block_weighted_attention(rng, LAYOUT, 1e-4)},
        decode_rows={4: row_stochastic(rng, LAYOUT.seq_len)[:2]},
        plan={"retain_ratio": 0.5, "tau": 0.03, "schedule": [4]})
    manifest = json.loads(path.read_text(encoding="utf-8"))
    assert _run(["pipeline", "--manifest", str(path)])[0] == 0
    payloads = {name: (path.parent / name).read_bytes() for name in ("attn_4.bin", "decode_4.bin")}
    return path, manifest, payloads


def _run(argv):
    """Run the CLI; warnings are appended to stderr as the interpreter would
    print them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return rc, out.getvalue(), err.getvalue()


def _node_paths(node, prefix=()):
    """Key/index path of every node below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(manifest, path, value, delete):
    doc = json.loads(json.dumps(manifest))
    parent = _node(doc, path[:-1])
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _with_duplicate_key(manifest, path, key, value):
    """Manifest JSON text in which the object at ``path`` gives ``key`` a
    second time, with ``value``, after its other keys."""
    doc = json.loads(json.dumps(manifest))
    _node(doc, path)[DUPLICATE_SENTINEL] = value
    return json.dumps(doc).replace(json.dumps(DUPLICATE_SENTINEL), json.dumps(key), 1)


def _with_renamed_key(manifest, path, key, new):
    """Manifest JSON text in which the object at ``path`` calls ``key``
    ``new`` instead, in the same place among its keys."""
    doc = json.loads(json.dumps(manifest))
    obj = _node(doc, path)
    items = [(new if k == key else k, v) for k, v in obj.items()]
    obj.clear()
    obj.update(items)
    return json.dumps(doc)


def _mutated_payload(data, payload):
    """Attention or decode rows with one entry made NaN or negative, a +inf
    and a -inf in one row, one row scaled by 2 or filled with float32 max,
    or the file cut short by one float."""
    rows = np.frombuffer(payload, dtype="<f4").reshape(-1, LAYOUT.seq_len).copy()
    r = data.draw(st.integers(0, rows.shape[0] - 1), label="row")
    c = data.draw(st.integers(0, rows.shape[1] - 1), label="column")
    kinds = ["nan", "negative", "inf pair", "scaled", "float32 max", "truncated"]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "nan":
        rows[r, c] = np.nan
    elif kind == "inf pair":
        rows[r, c], rows[r, c - 1] = np.inf, -np.inf
    elif kind == "float32 max":
        rows[r] = np.finfo(np.float32).max
    elif kind == "negative":
        rows[r, c] = -data.draw(st.floats(1e-6, 10.0), label="weight")
    elif kind == "scaled":
        rows[r] *= 2.0
    else:
        return rows.tobytes()[:-4]
    return rows.tobytes()


def _assert_valid_report(report):
    """The invariants a served report keeps whatever the manifest said."""
    for probe in (report.get("prune_decision") or {}).get("probed", []):
        assert 0.0 <= probe["text_to_visual"] <= 1.0
        assert 0.0 <= probe["visual_to_text"] <= 1.0
    for layer in report.get("decoding_attention", []):
        fractions = [layer["to_system"], layer["to_visual"], layer["to_text"]]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert sum(fractions) <= 1.0 + ROW_SUM_TOL
    if report["command"] == "pipeline":
        indices = report["retention"]["indices"]
        assert len(set(indices)) == len(indices)
        assert all(0 <= i < LAYOUT.visual_len for i in indices)
        sims = [step["max_similarity"] for step in report["retention"]["trace"]]
        assert sims == sorted(sims)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data(), command=st.sampled_from(["pipeline", "decide"]))
def test_mutated_manifest_exits_0_or_3(valid_manifest, data, command):
    # One node of a valid manifest is replaced by an arbitrary JSON value or
    # deleted, or one object gives one of its keys a second time or renames
    # it to a key no manifest object takes, or (one draw in two) the
    # attention or decode-row payload is corrupted, or the decode entry
    # declares zero rows. The CLI either serves a valid result
    # or names the error; it never raises, and it never succeeds silently or
    # with garbage.
    path, manifest, payloads = valid_manifest
    text, payloads, duplicate, renamed = json.dumps(manifest), dict(payloads), None, None
    if data.draw(st.booleans(), label="payload"):
        target = data.draw(st.sampled_from(["attn_4.bin", "decode_4.bin", "no rows"]), label="target")
        if target == "no rows":
            i = next(i for i, e in enumerate(manifest["entries"]) if e["role"] == "decode_rows")
            text = json.dumps(_mutated(manifest, ("entries", i, "shape", 0), 0, False))
            payloads["decode_4.bin"] = b""
        else:
            payloads[target] = _mutated_payload(data, payloads[target])
    else:
        mutation = data.draw(st.sampled_from(["replace", "delete", "duplicate key", "rename key"]),
                             label="mutation")
        if mutation in ("duplicate key", "rename key"):
            objects = [()] + [p for p in _node_paths(manifest) if isinstance(_node(manifest, p), dict)]
            node = data.draw(st.sampled_from(objects), label="object")
            key = data.draw(st.sampled_from(sorted(_node(manifest, node))), label="key")
        if mutation == "duplicate key":
            duplicate = key
            text = _with_duplicate_key(manifest, node, key, data.draw(JSON_VALUES, label="value"))
        elif mutation == "rename key":
            renamed = data.draw((st.sampled_from([key.title(), key + "s"]) | st.text(max_size=8))
                                .filter(lambda k: k not in KNOWN_KEYS), label="renamed")
            text = _with_renamed_key(manifest, node, key, renamed)
        else:
            value = None if mutation == "delete" else data.draw(JSON_VALUES, label="value")
            node = data.draw(st.sampled_from(list(_node_paths(manifest))), label="node")
            text = json.dumps(_mutated(manifest, node, value, mutation == "delete"))
    path.write_text(text, encoding="utf-8")
    for name, payload in payloads.items():
        (path.parent / name).write_bytes(payload)

    rc, out, err = _run([command, "--manifest", str(path)])
    assert rc in (0, 3), err
    if duplicate is not None:
        assert rc == 3 and f"duplicate key {duplicate!r}" in err
    if renamed is not None:
        assert rc == 3 and f"unknown key {renamed!r}" in err
    assert "Warning" not in err
    if rc == 0:
        report = json.loads(out)
        assert report["command"] == command
        _assert_valid_report(report)
    else:
        assert out == "" and f"vtcomp {command}: error: " in err


def test_a_failing_property_is_reported_as_a_failure(tmp_path):
    # Under the project's warning filters, a failing hypothesis test must count
    # as one failure, not end the session in an INTERNALERROR that hides the rest.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n", encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
                          "--rootdir", str(tmp_path), "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
