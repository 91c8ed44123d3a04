"""Mechanism files: the on-disk JSON schema, loading, and saving.

Schema (rationals are integers or "p/q" strings; floats are rejected):

    { "sellers": [ {"id": str, "names": [str, ...], "budget": rat} ],
      "buyers":  [ {"id": str, "names": [str, ...], "budget": rat,
                    "valuation": rat, "incentives": {sellerId: rat, ...}} ],
      "edges":   [ [idA, idB], ... ],
      "rule":    "smf" }

Each section, when present, must be a list, and ids and edge ends must be
strings. Edges are undirected; duplicates and reversed pairs are rejected.
Missing incentive entries default to 0, and saving leaves zero ones out.

Loading reads a document once. It refuses a wrong shape where it meets it,
and judges the rules of `validate_mechanism` on each value as it reads it;
only an invalid document is then walked by `validate_mechanism`, for the
text of the refusal. Saving passes the same gate (`model._require_valid`)
first, so it refuses exactly what loading refuses; it also refuses an
amount with more digits than Python prints, which loading would refuse as
well, so a saved file loads.

There is one writer, `_render`: it reads the network once into templates of
the schema's fixed shape, laid out as `json.dumps(..., indent=2)` lays it
out, and leaves only the strings and integers to C (CPython's `json.dumps`
runs its pure-Python encoder whenever `indent` is set). `save_mechanism`
writes its text plus a newline, and `mechanism_to_dict` parses the same
text, so a saved file is exactly `json.dumps(mechanism_to_dict(m),
indent=2)` plus a newline.

The text is rendered whole before the file is opened, so a refused
mechanism writes nothing. `_write_text`, the one writer of damcheck's
output files (saved mechanisms and what `damcheck gen` writes), then
rewrites an existing file in place, with no truncation to size 0 first:
the file keeps its inode, mode and links. The rewrite is not atomic."""

from __future__ import annotations

import json
import os
import stat
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from .auction import has_rule
from .errors import MechanismError
from .model import (
    _IDENT_RE,
    RESERVED_WORDS,
    SELLER,
    AgentId,
    MarketNetwork,
    Mechanism,
    _require_valid,
    buyer,
    seller,
)


def parse_rational(value: Any, where: str = "value") -> Fraction:
    """Exact rational from an int or a "p" / "p/q" string: an optional '-',
    decimal digits, and optionally '/' and more digits; q is not 0."""
    if isinstance(value, bool):
        raise MechanismError(f"{where}: booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num.removeprefix("-")
        if (digits + den).isascii() and digits.isdigit() and (den.isdigit() or not slash):
            try:
                return Fraction(int(num), int(den) if slash else 1)
            except (ValueError, ZeroDivisionError):  # too many digits, or q = 0
                pass
        raise MechanismError(f"{where}: cannot parse rational {value!r}")
    raise MechanismError(
        f"{where}: rationals must be integers or 'p/q' strings, got {value!r}"
    )


def mechanism_from_dict(doc: dict) -> Mechanism:
    """Build a Mechanism from the schema dictionary, in one pass.

    A document of the wrong shape (a section, an id, a name list, an amount
    or an edge) raises MechanismError where it is read. Each rule of
    `validate_mechanism` that a well-shaped document can break is judged in
    the same pass: on an entry as it is read, or once over what the pass
    built (the sections, the distinct amounts, the nominals, the rule). A
    broken rule is acted on only after the whole document is read, so a
    later shape error still wins, and the refusal is the one every entry
    point gives (`model._require_valid`). A valid document is recorded as
    such, so neither the loader nor a later query walks it a second time."""
    if not isinstance(doc, dict):
        raise MechanismError("mechanism document must be a JSON object")
    for key in ("sellers", "buyers", "edges"):
        if not isinstance(doc.get(key, []), list):
            raise MechanismError(f"{key!r} must be a list")

    sellers: list[AgentId] = []
    buyers: list[AgentId] = []
    budget: dict[AgentId, Fraction] = {}
    valuation: dict[AgentId, Fraction] = {}
    incentive: dict[tuple[AgentId, AgentId], Fraction] = {}
    names: dict[str, AgentId] = {}
    parsed: dict[int | str, Fraction] = {}  # amounts repeat: parse each once
    valid = True  # the entries read so far break no rule of validate_mechanism

    def rational(value: Any, what: str, ident: str, sid: str | None = None) -> Fraction:
        """Agent `ident`'s amount `what` (with seller `sid`, for an incentive)."""
        if type(value) is int or type(value) is str:  # True == 1.0 == 1
            exact = parsed.get(value)
            if exact is not None:
                return exact
        where = f"{what} of {ident}" if sid is None else f"{what} of ({ident}, {sid})"
        # every amount read is cached, so the sign test below sees them all
        exact = parsed[value] = parse_rational(value, where)
        return exact

    def add_names(agent: AgentId, noms: Any) -> bool:
        """Register the agent's nominals; False if it has none."""
        if not isinstance(noms, list) or not all(isinstance(n, str) for n in noms):
            raise MechanismError(f"names of {agent.id!r} must be a list of strings")
        for nom in noms:
            if nom in names:
                if names[nom] is agent:
                    raise MechanismError(f"names of {agent.id!r} list {nom!r} twice")
                raise MechanismError(f"nominal {nom!r} names two agents")
            names[nom] = agent
        return bool(noms)

    def agent_id_of(entry: Any, section: str) -> str:
        if not isinstance(entry, dict) or "id" not in entry:
            raise MechanismError(f"every {section} entry needs an 'id' field")
        ident = entry["id"]
        if not isinstance(ident, str):
            raise MechanismError(f"{section} id {ident!r} is not a string")
        return ident

    for entry in doc.get("sellers", []):
        ident = agent_id_of(entry, "seller")
        agent = seller(ident)
        sellers.append(agent)
        budget[agent] = rational(entry.get("budget", 0), "budget", ident)
        valid &= add_names(agent, entry.get("names", []))

    seller_by_id = {s.id: s for s in sellers}
    for entry in doc.get("buyers", []):
        ident = agent_id_of(entry, "buyer")
        agent = buyer(ident)
        buyers.append(agent)
        bdg = budget[agent] = rational(entry.get("budget", 0), "budget", ident)
        val = valuation[agent] = rational(entry.get("valuation", 0), "valuation", ident)
        # val <= bdg, cross-multiplied: Fraction's `<=` runs in Python
        valid &= val.numerator * bdg.denominator <= bdg.numerator * val.denominator
        valid &= add_names(agent, entry.get("names", []))
        incentives = entry.get("incentives", {})
        if not isinstance(incentives, dict):
            raise MechanismError(f"incentives of {agent.id!r} must be an object")
        for sid, amount in incentives.items():
            sell = seller_by_id.get(sid)
            if sell is None:
                raise MechanismError(
                    f"incentives of {agent.id!r} mention unknown seller {sid!r}"
                )
            value = rational(amount, "incentive", ident, sid)
            if value:  # zero is the default; keep the map canonical
                incentive[(agent, sell)] = value

    by_id = {a.id: a for a in sellers + buyers}
    if len(by_id) != len(sellers) + len(buyers):
        raise MechanismError("duplicate agent ids")

    adjacent: dict[AgentId, set[AgentId]] = {a: set() for a in by_id.values()}
    for pair in doc.get("edges", []):
        if not isinstance(pair, list) or len(pair) != 2:
            raise MechanismError(f"edge {pair!r} is not a two-element list")
        if not isinstance(pair[0], str) or not isinstance(pair[1], str):
            raise MechanismError(f"edge {pair!r}: agent ids must be strings")
        try:
            a, b = by_id[pair[0]], by_id[pair[1]]
        except KeyError as exc:
            raise MechanismError(f"edge {pair!r} mentions unknown agent {exc}") from None
        if b in adjacent[a]:
            raise MechanismError(f"duplicate or reversed edge {pair!r}")
        adjacent[a].add(b)
        adjacent[b].add(a)
        if a is b or (a.kind == SELLER and b.kind == SELLER):
            valid = False  # a self-loop or a seller-seller edge
    friends = {a: frozenset(nbrs) for a, nbrs in adjacent.items()}

    mechanism = Mechanism(
        network=MarketNetwork(
            sellers=tuple(sellers),
            buyers=tuple(buyers),
            friends=friends,
            budget=budget,
            valuation=valuation,
            incentive=incentive,
            names=names,
        ),
        rule=str(doc.get("rule", "smf")),
    )
    if (
        valid
        and sellers
        and buyers
        and all(q.numerator >= 0 for q in parsed.values())  # once per distinct amount
        and all(map(_IDENT_RE.match, names))
        and RESERVED_WORDS.isdisjoint(names)
        and has_rule(mechanism.rule)
    ):
        # the gate's record of a pass: the rules above are all of its rules
        # that a document can break
        mechanism.network.__dict__["_valid_for"] = (mechanism.rule,)
    _require_valid(mechanism)
    return mechanism


def load_mechanism(path: str | Path) -> Mechanism:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise MechanismError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and integers too long to convert
        raise MechanismError(f"{path} is not valid JSON: {exc}") from None
    return mechanism_from_dict(doc)


# the layout json.dumps(..., indent=2) gives the schema's fixed shape
_DOCUMENT = '{\n  "sellers": %s,\n  "buyers": %s,\n  "edges": %s,\n  "rule": %s\n}'
_SELLER = '{\n      "id": %s,\n      "names": %s,\n      "budget": %s\n    }'
_BUYER = (
    '{\n      "id": %s,\n      "names": %s,\n      "budget": %s,'
    '\n      "valuation": %s,\n      "incentives": %s\n    }'
)
_EDGE = "[\n      %s,\n      %s\n    ]"
_FIELD = "\n      "  # the line break and indent of a seller's or buyer's field


def _items(items: list[str], pad: str, brackets: str) -> str:
    """Rendered items inside `brackets`, one a line, where `pad` is the line
    break and indent of the list or object's own nesting level."""
    if not items:
        return brackets
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _amount(value: int | Fraction, what: str, owner: str | tuple[str, str]) -> str:
    """An exact amount as the schema writes it: the integer, or the JSON
    string "p/q". `what` and `owner` say where it is, should it have more
    digits than Python prints."""
    num, den = value.as_integer_ratio()
    try:
        return int.__repr__(num) if den == 1 else f'"{num}/{den}"'
    except ValueError:  # past sys.get_int_max_str_digits(); loading refuses it too
        raise MechanismError(f"{what} of {owner!r} has too many digits to print") from None


def _render(mechanism: Mechanism) -> str:
    """The mechanism's file, without its final newline, in one read of the
    network: names sorted, sellers and buyers in network order, each buyer's
    non-zero incentives in seller order, each edge once from its lesser id
    in sorted order, laid out as `json.dumps(..., indent=2)` lays out the
    schema. Strings go through json's C escaper and integers through
    `int.__repr__`, so the text is ASCII. An invalid mechanism raises
    MechanismError first (`model._require_valid`), and so does an amount
    too long to print."""
    _require_valid(mechanism)
    net = mechanism.network
    enc = encode_basestring_ascii
    names: dict[AgentId, list[str]] = {agent: [] for agent in net.agents()}
    for nom, agent in sorted(net.names.items()):  # so each agent's are sorted
        names[agent].append(enc(nom))
    sellers = [
        _SELLER % (enc(s.id), _items(names[s], _FIELD, "[]"),
                   _amount(net.budget[s], "budget", s.id))
        for s in net.sellers
    ]
    buyers = [
        _BUYER % (
            enc(b.id),
            _items(names[b], _FIELD, "[]"),
            _amount(net.budget[b], "budget", b.id),
            _amount(net.valuation[b], "valuation", b.id),
            _items(
                [  # each amount read once; absent or zero is left out
                    enc(s.id) + ": " + _amount(amount, "incentive", (b.id, s.id))
                    for s in net.sellers
                    if (amount := net.incentive.get((b, s)))
                ],
                _FIELD,
                "{}",
            ),
        )
        for b in net.buyers
    ]
    # friendship is symmetric: each edge once, from its lesser id
    edges = sorted(
        (a.id, b.id) for a, nbrs in net.friends.items() for b in nbrs if a.id <= b.id
    )
    return _DOCUMENT % (
        _items(sellers, "\n  ", "[]"),
        _items(buyers, "\n  ", "[]"),
        _items([_EDGE % (enc(a), enc(b)) for a, b in edges], "\n  ", "[]"),
        enc(mechanism.rule),
    )


def mechanism_to_dict(mechanism: Mechanism) -> dict:
    """The schema dictionary of a mechanism: the file `save_mechanism` would
    write, parsed. It refuses what saving refuses, with the same
    MechanismError, so what it returns is a file that loads."""
    return json.loads(_render(mechanism))


def save_mechanism(mechanism: Mechanism, path: str | Path) -> None:
    """Write the mechanism's file: the schema laid out as
    `json.dumps(mechanism_to_dict(mechanism), indent=2)` lays it out, plus a
    newline, rendered once from the network. An invalid mechanism raises
    MechanismError, as `load_mechanism` would refuse the file, and so does
    an amount with more digits than Python prints, which no file can carry;
    either way nothing is written. An existing file is rewritten in place
    (`_write_text`)."""
    _write_text(path, _render(mechanism) + "\n")


def _write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` as UTF-8, as `Path.write_text` does, but over
    an existing file in place: the file is opened without O_TRUNC, written
    from its start, and then cut to the new length. It keeps its inode,
    mode and links, and a symlink's target is written. A new file gets mode
    0o666 less the umask, as `open(path, "w")` gives it. The rewrite is not
    atomic, as `Path.write_text`'s is not.

    Opening with O_TRUNC would cut the file to size 0 first, and on ext4
    (with its default `auto_da_alloc`) closing a file cut to 0 that had
    blocks starts a writeback of it: tens of milliseconds a rewrite of a
    1 MB file, against a fraction of a millisecond in place. A rename over
    the file pays the same. Only a regular file is cut: `ftruncate` fails
    on a character device such as /dev/null and on a pipe."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as out:
        out.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            out.truncate()
