"""JSON loading/saving for graphs, losses and weight files.

Graph file format::

    {
      "nodes": ["s", "a", "t"],
      "edges": [{"from": "s", "to": "a", "loss": 1.5}, ...],
      "source": "s"            # optional, inferred if unique
    }

`loss` is optional per edge. A separate losses file is a flat mapping
"from->to" -> number. A loss in either file is finite and non-negative.
No label contains "->", which joins the labels of an edge key and of a
path in reports.
"""

from __future__ import annotations

import json
import math
import os
from json.encoder import encode_basestring_ascii

from .graph import Dag, Edge, GraphError, build_dag, validate


class FormatError(GraphError):
    """Raised on malformed input files."""


def finite_number(x) -> bool:
    """An int or float, not a bool, strictly between -inf and inf. The
    comparisons, unlike `math.isfinite`, take an int of any size."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and -math.inf < x < math.inf


def parse_graph_data(data: dict) -> tuple[list[str], list[tuple[str, str]], dict, str | None]:
    """Split a parsed graph JSON object into (nodes, edges, label_losses, source)."""
    if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
        raise FormatError("graph file must be an object with 'nodes' and 'edges'")
    nodes = data["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(x, str) for x in nodes):
        raise FormatError("'nodes' must be a list of string labels")
    for x in nodes:
        if "->" in x:
            raise FormatError(f"node label {x!r} contains '->', which joins labels in keys")
    if not isinstance(data["edges"], list):
        raise FormatError("'edges' must be a list of edge objects")
    edges: list[tuple[str, str]] = []
    label_losses: dict[tuple[str, str], float] = {}
    for k, e in enumerate(data["edges"]):
        if not isinstance(e, dict) or "from" not in e or "to" not in e:
            raise FormatError(f"edge #{k} must be an object with 'from' and 'to'")
        u, v = e["from"], e["to"]
        if not isinstance(u, str) or not isinstance(v, str):
            raise FormatError(f"edge #{k} 'from' and 'to' must be string labels")
        edges.append((u, v))
        if "loss" in e:
            x = e["loss"]
            if not (finite_number(x) and x >= 0):
                raise FormatError(f"edge #{k} loss must be a non-negative number")
            label_losses[(u, v)] = x
    source = data.get("source")
    if source is not None and not isinstance(source, str):
        raise FormatError("'source' must be a string label")
    return nodes, edges, label_losses, source


def load_json(path: str | os.PathLike):
    """Parse one JSON file; malformed content raises FormatError naming it.

    Besides syntax and encoding errors (both ValueErrors), that covers
    nesting too deep for the parser (RecursionError) and an integer literal
    longer than CPython converts from text (ValueError).
    """
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise FormatError(f"{path}: invalid JSON (nested too deeply)") from None
        except ValueError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from None


def load_graph_file(path: str | os.PathLike) -> tuple[Dag, dict[Edge, float]]:
    """Load and build a graph file; returns (dag, losses-by-index).

    The losses dict may be partial or empty; operations that need a total
    loss function check for themselves.
    """
    nodes, edges, label_losses, source = parse_graph_data(load_json(path))
    dag = build_dag(nodes, edges, source)
    losses = {(dag.index(u), dag.index(v)): x for (u, v), x in label_losses.items()}
    return dag, losses


def load_raw_graph_file(path: str | os.PathLike) -> tuple[list[str], list[tuple[str, str]], str | None]:
    """Load nodes/edges without building a Dag (for `validate`)."""
    nodes, edges, _, source = parse_graph_data(load_json(path))
    return nodes, edges, source


def parse_edge_key(key: str) -> tuple[str, str]:
    if "->" not in key:
        raise FormatError(f"bad edge key {key!r}, expected 'from->to'")
    u, _, v = key.partition("->")
    return u.strip(), v.strip()


def load_losses_file(path: str | os.PathLike, dag: Dag) -> dict[Edge, float]:
    """Load a flat "from->to" -> loss mapping keyed to dag indices."""
    data = load_json(path)
    if not isinstance(data, dict):
        raise FormatError("losses file must be an object mapping 'from->to' to numbers")
    losses: dict[Edge, float] = {}
    for key, x in data.items():
        u, v = parse_edge_key(key)
        if not (finite_number(x) and x >= 0):
            raise FormatError(f"loss for {key!r} must be a non-negative number")
        e = (dag.index(u), dag.index(v))
        if not dag.has_edge(*e):
            raise FormatError(f"losses file names a non-edge {key!r}")
        losses[e] = x
    return losses


def load_weights_file(path: str | os.PathLike, dag: Dag) -> dict[int, float]:
    """Load a label -> weight mapping; missing labels default to 0. A
    weight is a finite number within the float range; its sign and the sum
    are checked where the weight vector is built."""
    data = load_json(path)
    if not isinstance(data, dict):
        raise FormatError("weights file must be an object mapping labels to numbers")
    weights = {i: 0.0 for i in range(dag.n)}
    for label, x in data.items():
        if not finite_number(x):
            raise FormatError(f"weight for {label!r} must be a finite number")
        try:
            w = float(x)
        except OverflowError:  # an int literal of more than about 308 digits
            raise FormatError(f"weight for {label!r} is beyond the float range") from None
        weights[dag.index(label)] = w
    return weights


def dump_json(obj, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(obj, indent=2, sort_keys=True)
    return json.dumps(obj, sort_keys=True)


def dump_liability_report(
    report: dict, labels: list[str], splits: list[list[float]], liabilities: dict[str, int],
    pretty: bool = False,
) -> str:
    """The text `dump_json` gives for `report` with one more member,
    "liabilities", that maps each key k of `liabilities` to the object
    dict(zip(labels, splits[liabilities[k]])).

    `labels` are distinct, at least one, and sorted as `sort_keys` sorts
    them; each of `splits` holds one float per label, in that order, and
    `liabilities` has at least one key. A split that many keys share is
    written once: every split is encoded in one call, its number tokens
    fill one skeleton of the escaped labels, and the text is joined once
    from parts that refer to that split text.
    """
    item_sep = "," if pretty else ", "

    def newline(depth: int) -> str:
        return "\n" + "  " * depth if pretty else ""

    def obj(members, depth: int) -> list[str]:
        # the parts of an object's text from (key, parts of its value) pairs
        inner = newline(depth + 1)
        sep = item_sep + inner
        parts = []
        for key, value in members:
            parts += (sep, encode_basestring_ascii(key), ": ", *value)
        parts[0] = "{" + inner
        parts.append(newline(depth) + "}")
        return parts

    # each value once: a list that is two members (the outcomes and the
    # efficient paths when they coincide) is one object; a nested text moves
    # one level in, and a JSON string holds no raw newline
    texts: dict[int, tuple[str]] = {}
    members = {}
    for key, value in report.items():
        if id(value) not in texts:
            texts[id(value)] = (dump_json(value, pretty).replace("\n", newline(1)),)
        members[key] = texts[id(value)]
    skeleton = "".join(obj([(x.replace("%", "%%"), ("%s",)) for x in labels], 2))
    # a float's token holds no ',', '[' or ']'
    split_texts = [
        (skeleton % tuple(row.split(", ")),) for row in json.dumps(splits)[2:-2].split("], [")
    ]
    members["liabilities"] = obj([(k, split_texts[i]) for k, i in sorted(liabilities.items())], 1)
    return "".join(obj(sorted(members.items()), 0))
