"""The tower description file format.

A strict, line-based sectioned format: sections open with a bracketed
header `[kind name]` and contain `key = value` entries.  Matrices are
bracketed rows of decimal integers separated by semicolons, for example
`[2 0; 0 3]`; group relation rows are relators (one relator per row).
Unknown section kinds and unknown keys are rejected with a located
ParseError; dangling names raise UnresolvedReference.
"""

from functools import cached_property

from . import errors
from .errors import TooLarge
from .exactlat import IntMatrix, MutableRecord, hom_make, present
from .towers import (
    _FAMILY_REGISTRY,
    StreamedTower,
    TowerError,
    UnknownFamily,
    canonical_completion_ses,
    make_streamed,
    periodic_tower,
    tower_ses,
)


class ParseError(Exception):
    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line
        self.message = message


class UnresolvedReference(Exception):
    def __init__(self, name):
        super().__init__("unresolved reference: %s" % name)
        self.name = name


class MissingSection(UnresolvedReference):
    """A command reads a kind of section that the file does not have."""

    def __init__(self, kind):
        Exception.__init__(self, "no [%s] section in the file" % kind)
        self.name = kind


class DimensionMismatch(Exception):
    pass


_SECTION_KEYS = {
    "group": {"generators", "relations"},
    "map": {"source", "target", "matrix"},
    "tower": {"tail_group", "tail_endo", "prefix_groups", "prefix_bonds",
              "splice", "family", "params"},
    "ses": {"sub", "total", "quot", "inject", "surject", "canonical"},
    "complex": {"vertices", "simplices"},
    "smap": {"source", "target", "vertex_map"},
    "stower": {"family", "params", "tail_complex", "tail_map"},
}


class TowerFile(MutableRecord):
    """Parsed and resolved tower description document.

    `parse` checks every section.  The short exact sequences of the [ses]
    sections are built, with their exactness checks, on the first read of
    `ses`, so a command that reads only the towers of a file does not pay
    for them.  The simplicial objects of the [complex], [smap] and [stower]
    sections are built on the first read of `stowers`, so a command on the
    algebraic towers of a file does not load the simplicial modules.  An
    error that only the built objects detect (a sequence that is not
    exact, a simplex out of range, a vertex map that is not simplicial, an
    unknown or mis-parameterised stower family) surfaces there.
    """

    _fields = ("groups", "maps", "towers")
    # checked (name, builder, arguments) of each [ses] section, in file order
    _sequences = ()
    # checked (kind, name, spec, where), in file order: where is the header
    # line, or a family's entries for _refusal_line
    _simplicial = ()

    def __init__(self, groups=None, maps=None, towers=None):
        self.groups = {} if groups is None else groups
        self.maps = {} if maps is None else maps
        self.towers = {} if towers is None else towers

    @cached_property
    def ses(self):
        return {name: build(*spec) for name, build, spec in self._sequences}

    @cached_property
    def stowers(self):
        return _build_simplicial(self._simplicial)


def _parse_matrix(text, line):
    """The rows of a bracketed matrix, as tuples of ints of one length."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(line, "matrix must be bracketed, like [1 2; 3 4]")
    body = text[1:-1].strip()
    if not body:
        return []
    try:
        rows = [tuple(map(int, chunk.split())) for chunk in body.split(";")]
    except ValueError:
        raise ParseError(line, "matrix entries must be decimal integers")
    if len({len(r) for r in rows}) > 1:
        raise ParseError(line, "matrix rows have unequal lengths")
    return rows


def _parse_int(text, line):
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(line, "expected an integer, got %r" % text.strip())


def parse_text(text):
    """Parse and resolve a tower file from its text; see parse() for its bytes."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.lstrip().startswith("["):
            header = line.strip()
            if not header.endswith("]"):
                raise ParseError(lineno, "unterminated section header")
            parts = header[1:-1].split()
            if len(parts) != 2:
                raise ParseError(lineno, "section header needs a kind and a name")
            kind, name = parts
            if kind not in _SECTION_KEYS:
                raise ParseError(lineno, "unknown section kind %r" % kind)
            current = (kind, name, {}, lineno)
            sections.append(current)
            continue
        if current is None:
            raise ParseError(lineno, "content before any section header")
        if "=" not in line:
            raise ParseError(lineno, "expected key = value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _SECTION_KEYS[current[0]]:
            raise ParseError(lineno, "unknown key %r in [%s] section" % (key, current[0]))
        if key in current[2]:
            raise ParseError(lineno, "duplicate key %r" % key)
        current[2][key] = (value.strip(), lineno)
    if not sections:
        raise ParseError(1, "empty document")
    return _resolve(sections)


def parse(raw):
    """Parse and resolve a tower description file from its bytes, which
    must be UTF-8; a byte that is not is a ParseError at its line.

    >>> parse(b"[group G]\\ngenerators = 1  # caf\\xe9\\n")
    Traceback (most recent call last):
        ...
    towerlim.towerfile.ParseError: line 2: byte 0xe9 is not UTF-8 (invalid continuation byte)
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(raw.count(b"\n", 0, exc.start) + 1, "byte 0x%02x is not UTF-8 (%s)"
                         % (raw[exc.start], exc.reason))
    return parse_text(text)


def _need(entries, key, kind, name, header_line):
    if key not in entries:
        raise ParseError(header_line, "[%s %s] is missing %r" % (kind, name, key))
    return entries[key]


def _resolve(sections):
    doc = TowerFile()
    # simplicial sections are checked here and built by _build_simplicial
    complexes, smaps, simplicial, sequences = {}, {}, [], []
    for kind, name, entries, header in sections:
        if kind == "group":
            text, line = _need(entries, "generators", kind, name, header)
            gens = _parse_int(text, line)
            if gens > errors.MAX_GENERATORS:
                raise TooLarge("[group %s] declares %d generators, over the bound of %d "
                               "generators per group" % (name, gens, errors.MAX_GENERATORS))
            rel_rows = []
            if "relations" in entries:
                rel_rows = _parse_matrix(*entries["relations"])
            if rel_rows and len(rel_rows[0]) != gens:
                raise DimensionMismatch("column length mismatch")
            if gens < 0:
                raise DimensionMismatch("row count mismatch")
            # file rows are relators, so the relation matrix is their transpose
            rel = IntMatrix._new(gens, len(rel_rows),
                                 tuple(zip(*rel_rows)) if rel_rows else ((),) * gens)
            doc.groups[name] = present(gens, rel)
        elif kind == "map":
            src = _ref(doc.groups, _need(entries, "source", kind, name, header)[0])
            tgt = _ref(doc.groups, _need(entries, "target", kind, name, header)[0])
            rows = _parse_matrix(*_need(entries, "matrix", kind, name, header))
            matrix = (IntMatrix._new(len(rows), len(rows[0]), tuple(rows)) if rows
                      else IntMatrix.zero(tgt.generators, src.generators))
            try:
                doc.maps[name] = hom_make(src, tgt, matrix)
            except ValueError as exc:
                raise DimensionMismatch(str(exc))
        elif kind == "tower":
            doc.towers[name] = _resolve_tower(doc, entries, name, header)
        elif kind == "complex":
            n, line = _need(entries, "vertices", kind, name, header)
            n = _parse_int(n, line)
            simp = _parse_matrix(*_need(entries, "simplices", kind, name, header))
            complexes[name] = (n, simp)
            simplicial.append((kind, name, (n, simp), header))
        elif kind == "smap":
            src = _need(entries, "source", kind, name, header)[0]
            _ref(complexes, src)
            tgt = _need(entries, "target", kind, name, header)[0]
            _ref(complexes, tgt)
            vm = _parse_matrix(*_need(entries, "vertex_map", kind, name, header))
            if len(vm) != 1:
                raise ParseError(header, "vertex_map must be a single row")
            smaps[name] = (src, tgt, vm[0])
            simplicial.append((kind, name, smaps[name], header))
        elif kind == "stower":
            simplicial.append(_check_stower(complexes, smaps, entries, name, header))
        elif kind == "ses":
            sequences.append((name,) + _check_ses(doc, entries, name, header))
    doc._sequences = tuple(sequences)
    doc._simplicial = tuple(simplicial)
    return doc


def _build_simplicial(checked):
    """The stowers of a document from its checked simplicial sections."""
    from .shape import _EXAMPLES, PeriodicSimplicialTower, UnknownExample, make_example
    from .simplicial import SimplicialComplex, SimplicialError, SimplicialMap
    complexes, smaps, stowers = {}, {}, {}
    for kind, name, spec, where in checked:
        if kind == "family":
            try:
                stowers[name] = make_example(*spec)
            except UnknownExample as exc:
                raise ParseError(_refusal_line(where, spec[0] in _EXAMPLES), str(exc))
        elif kind == "stower":
            tail_c, tail_m = spec
            stowers[name] = PeriodicSimplicialTower((), complexes[tail_c], smaps[tail_m])
        else:
            try:
                if kind == "complex":
                    complexes[name] = SimplicialComplex.from_maximal(*spec)
                else:
                    src, tgt, vm = spec
                    smaps[name] = SimplicialMap(complexes[src], complexes[tgt], vm)
            except SimplicialError as exc:
                raise DimensionMismatch(str(exc))
    return stowers


def _ref(table, name):
    if name not in table:
        raise UnresolvedReference(name)
    return table[name]


def _parse_params(entries):
    if "params" not in entries:
        return ()
    rows = _parse_matrix(*entries["params"])
    if not rows:
        return ()
    if len(rows) != 1:
        raise ParseError(entries["params"][1], "params must be a single row")
    return rows[0]


def _refusal_line(entries, known):
    """The line of a family that refuses its section: `params =` when a
    known family refuses the params given, else `family =` (an unknown
    family, or params missing)."""
    key = "params" if known and "params" in entries else "family"
    return entries[key][1]


_ADIC_QUOTIENT_SYNTAX = ("adic_quotient cannot be written as a [tower] family; "
                         "[ses] canonical = G A builds the quotient tower L/A^k L")


def _resolve_tower(doc, entries, name, header):
    if "family" in entries:
        fam, line = entries["family"]
        if fam == "adic_quotient":
            raise ParseError(line, _ADIC_QUOTIENT_SYNTAX)
        try:
            return make_streamed(fam, _parse_params(entries))
        except UnknownFamily as exc:
            raise ParseError(_refusal_line(entries, fam in _FAMILY_REGISTRY), str(exc))
    tail_group = _ref(doc.groups, _need(entries, "tail_group", "tower", name, header)[0])
    tail_endo = _ref(doc.maps, _need(entries, "tail_endo", "tower", name, header)[0])
    prefix_groups = []
    prefix_bonds = []
    if "prefix_groups" in entries:
        names = entries["prefix_groups"][0].split()
        prefix_groups = [_ref(doc.groups, n) for n in names]
    if "prefix_bonds" in entries:
        names = entries["prefix_bonds"][0].split()
        prefix_bonds = [_ref(doc.maps, n) for n in names]
    splice = _ref(doc.maps, entries["splice"][0]) if "splice" in entries else None
    return periodic_tower(prefix_groups, prefix_bonds, tail_group, tail_endo, splice)


def _check_stower(complexes, smaps, entries, name, header):
    if "family" in entries:
        return ("family", name, (entries["family"][0], _parse_params(entries)), entries)
    tail_c = _need(entries, "tail_complex", "stower", name, header)[0]
    _ref(complexes, tail_c)
    tail_m = _need(entries, "tail_map", "stower", name, header)[0]
    _ref(smaps, tail_m)
    return ("stower", name, (tail_c, tail_m), header)


def _check_ses(doc, entries, name, header):
    """The builder of an [ses] section and its resolved arguments."""
    if "canonical" in entries:
        val, line = entries["canonical"]
        parts = val.split()
        if len(parts) != 2:
            raise ParseError(line, "canonical takes a group name and an endo name")
        grp = _ref(doc.groups, parts[0])
        endo = _ref(doc.maps, parts[1])
        return canonical_completion_ses, (grp, endo)
    sub = _ref(doc.towers, _need(entries, "sub", "ses", name, header)[0])
    total = _ref(doc.towers, _need(entries, "total", "ses", name, header)[0])
    quot = _ref(doc.towers, _need(entries, "quot", "ses", name, header)[0])
    inject = _ref(doc.maps, _need(entries, "inject", "ses", name, header)[0])
    surject = _ref(doc.maps, _need(entries, "surject", "ses", name, header)[0])
    return tower_ses, (sub, total, quot, inject, surject)


# ---------------------------------------------------------------------------
# serialization (lab counterexample dumps)


def _matrix_text(rows):
    if not rows:
        return "[]"
    return "[" + "; ".join(" ".join(str(x) for x in r) for r in rows) + "]"


def serialize_sections(sections):
    out = []
    for kind, name, entries in sections:
        out.append("[%s %s]" % (kind, name))
        for key, value in entries.items():
            out.append("%s = %s" % (key, value))
        out.append("")
    return "\n".join(out)


def tower_sections(t):
    """Sections describing one eventually periodic or streamed tower, as
    the tower `main` over groups and maps named t_*."""
    if isinstance(t, StreamedTower):
        if t.family == "adic_quotient":
            raise TowerError(_ADIC_QUOTIENT_SYNTAX)
        entries = {"family": t.family}
        if t.params:
            entries["params"] = _matrix_text([list(t.params)])
        return [("tower", "main", entries)]
    sections = []

    def add_group(g, gname):
        rel_rows = [list(g.relations.column(j)) for j in range(g.relations.cols)]
        entries = {"generators": str(g.generators)}
        if rel_rows:
            entries["relations"] = _matrix_text(rel_rows)
        sections.append(("group", gname, entries))

    def add_map(h, mname, sname, tname):
        sections.append(("map", mname, {
            "source": sname, "target": tname,
            "matrix": _matrix_text([list(r) for r in h.matrix.data])}))

    add_group(t.tail_group, "t_tail")
    add_map(t.tail_endo, "t_endo", "t_tail", "t_tail")
    entries = {"tail_group": "t_tail", "tail_endo": "t_endo"}
    if t.prefix_len:
        pg = []
        for i, g in enumerate(t.prefix_groups):
            gname = "t_p%d" % i
            add_group(g, gname)
            pg.append(gname)
        pb = []
        for i, b in enumerate(t.prefix_bonds):
            mname = "t_b%d" % i
            add_map(b, mname, pg[i + 1], pg[i])
            pb.append(mname)
        add_map(t.splice, "t_splice", "t_tail", pg[-1])
        entries["prefix_groups"] = " ".join(pg)
        if pb:
            entries["prefix_bonds"] = " ".join(pb)
        entries["splice"] = "t_splice"
    sections.append(("tower", "main", entries))
    return sections


def dump_tower(t):
    """One tower as replayable file text (lab counterexample format)."""
    return serialize_sections(tower_sections(t))
