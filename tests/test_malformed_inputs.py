"""Seeded malformed inputs: the spec, PGM, training-config and checkpoint
parsers raise only package errors (``FdlError``), never a bare Python
exception.  A checkpoint parameter file of the right size loads exactly its
values, unless one is not finite."""

import copy
import importlib.resources as ir
import json

import numpy as np

from fdl.errors import ConfigError, FdlError
from fdl.network import spec_from_json
from fdl.pnm import read_image, write_pgm
from fdl.training import TrainConfig, build_toy, load_checkpoint, save_checkpoint

# Values of every JSON type, swapped in for a field's value; 1e400 is how
# the JSON number 1e400 decodes (infinity).
OTHER_VALUES = (None, True, 0, -1, 2.5, 1e400, "x", "", [], [1.0, 5], [[1.0, 5]], {}, {"kind": 1})
MUTANTS_PER_INPUT = 60


def _paths(node, path=()):
    """Every position in a decoded JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _flip(data, rng):
    """``data`` with 1-3 of its bytes flipped."""
    buf = bytearray(data)
    for pos in rng.integers(0, len(buf), size=int(rng.integers(1, 4))):
        buf[pos] ^= int(rng.integers(1, 256))
    return bytes(buf)


def _byte_mutants(data, rng, n):
    """Truncations and 1-3 byte flips of ``data``."""
    for i in range(n):
        yield _flip(data, rng) if i % 2 else data[: int(rng.integers(0, len(data)))]


def _float64_mutants(data, rng, n):
    """Mutants of little-endian float64 ``data`` at its own size: byte flips,
    and values whose exponent bits are all set (an infinity or a NaN)."""
    for i in range(n):
        if i % 2 == 0:
            yield _flip(data, rng)
        else:
            buf = bytearray(data)
            top = 8 * int(rng.integers(0, len(buf) // 8)) + 7
            buf[top] = 0x7F | (buf[top] & 0x80)
            buf[top - 1] |= 0xF0
            if rng.integers(2):  # mantissa all zero: an infinity
                buf[top - 7 : top] = b"\x00" * 6 + bytes([buf[top - 1] & 0xF0])
            yield bytes(buf)


def _json_mutants(text, rng, n):
    """Decoded documents from byte mutants of ``text`` that still parse as
    JSON, plus documents with one value replaced by another JSON type."""
    for data in _byte_mutants(text.encode("utf-8"), rng, n):
        try:
            yield json.loads(data)
        except ValueError:  # not JSON at all: the CLI reports that as exit 2
            continue
    doc = json.loads(text)
    paths = list(_paths(doc))
    for _ in range(n):
        path = paths[int(rng.integers(len(paths)))]
        yield _replace(doc, path, OTHER_VALUES[int(rng.integers(len(OTHER_VALUES)))])


def _call(parse, arg, failures):
    try:
        parse(arg)
    except FdlError:
        pass
    except Exception as exc:  # any other type is a parser fault
        failures.append(f"{parse.__name__}({arg!r:.120}): {type(exc).__name__}: {exc}")


def test_seeded_mutations_raise_only_fdl_errors(tmp_path):
    rng = np.random.default_rng(2024)
    failures = []

    for name in ("lwfsn", "red", "rlwfsn", "toy", "unet"):
        text = (ir.files("fdl") / "specs" / f"{name}.json").read_text(encoding="utf-8")
        for doc in _json_mutants(text, rng, MUTANTS_PER_INPUT):
            _call(spec_from_json, doc, failures)

    for doc in _json_mutants(json.dumps(TrainConfig().to_json()), rng, MUTANTS_PER_INPUT):
        _call(TrainConfig.from_json, doc, failures)

    images = [tmp_path / "p5.pgm", tmp_path / "p2.pgm"]
    write_pgm(images[0], rng.uniform(size=(1, 1, 4, 6)))
    images[1].write_bytes(b"P2\n# ascii\n3 2\n255\n0 128 255\n64 32 16\n")
    mutant = tmp_path / "mutant.pgm"
    for image in images:
        for data in _byte_mutants(image.read_bytes(), rng, MUTANTS_PER_INPUT):
            mutant.write_bytes(data)
            _call(read_image, mutant, failures)

    # a v1 checkpoint: mutants of its manifest beside intact parameter files
    save_checkpoint(build_toy(seed=0), tmp_path / "ckpt")
    manifest = tmp_path / "ckpt" / "checkpoint.json"
    original = manifest.read_bytes()
    mutants = list(_byte_mutants(original, rng, MUTANTS_PER_INPUT))
    for doc in _json_mutants(original.decode("utf-8"), rng, MUTANTS_PER_INPUT):
        mutants.append(json.dumps(doc).encode("utf-8"))
    mutants.append(b"[" * 100_000 + b"]" * 100_000)  # deeper than the parser's recursion limit
    for data in mutants:
        manifest.write_bytes(data)
        _call(load_checkpoint, manifest.parent, failures)
    manifest.write_bytes(original)

    # mutants of one parameter file at its own size, beside the intact manifest
    param = tmp_path / "ckpt" / "dec_kernel_1.f64"
    original = param.read_bytes()
    for data in _float64_mutants(original, rng, MUTANTS_PER_INPUT):
        param.write_bytes(data)
        values = np.frombuffer(data, dtype="<f8")
        try:
            loaded = load_checkpoint(param.parent).dec_kernels[1].value
        except ConfigError as exc:
            if np.all(np.isfinite(values)):
                failures.append(f"finite mutant rejected: {exc}")
            continue
        except Exception as exc:  # any other type is a loader fault
            failures.append(f"load_checkpoint: {type(exc).__name__}: {exc}")
            continue
        if not np.all(np.isfinite(values)):
            failures.append(f"non-finite mutant loaded: {values[~np.isfinite(values)]}")
        elif loaded.tobytes() != data:
            failures.append("finite mutant loaded other values than its file's")

    assert not failures, "\n".join(failures[:10])
