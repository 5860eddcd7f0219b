"""Structured descriptions of the groups produced by limit computations.

A tower of finitely generated abelian groups can have a limit that is far
from finitely generated (products, completions, quotients of completions).
A StructuredGroup is a tagged exact description of such a value, rich
enough to support a sound three-valued comparator: equality of canonical
keys is descriptor equality, distinctness is only claimed on genuine group
invariants, and everything else is Undecided.
"""

from .exactlat import Record, charpoly, free_group
from .poly import prime_factors


def _corank_profile(matrix, primes):
    """((q, c_q), ...) for the given primes q and the r x r matrix A:
    c_q = r - ord_x(chi_A mod q), the number of roots of the
    characteristic polynomial chi_A of q-valuation 0 (Newton polygon).

    The completion lim L/A^k L is the product over q | det(A) of Z_q to
    the number of roots of positive q-valuation, and L is dense in it,
    so c_q is the dimension of the q-torsion of the completion quotient.
    """
    chi = charpoly(matrix)
    return tuple((q, matrix.rows - next(i for i, c in enumerate(chi) if c % q))
                 for q in primes)


class StructuredGroup(Record):
    """Tagged exact description of a possibly non-f.g. abelian group.

    tag is one of:
      zero                 the trivial group
      fg                   payload: FgAbGroup
      completion_quotient  payload: (rank, matrix); the quotient of the
                           completion lim L/A^k L by the image of L
      completion           payload: (rank, matrix); the completion itself
      localization         payload: (FgAbGroup, matrix); colim L -> L -> ...
      full_product         payload: level descriptor string
      product_of           payload: factor tuple plus a countable-repetition flag
      direct_sum           payload: part tuple
      depth_limited        payload: report string
    """

    _fields = ("tag", "group", "rank", "matrix", "factors", "countable_repetition",
               "descriptor", "is_uncountable", "missing_primes", "corank_profile")

    def __init__(self, tag, group=None, rank=0, matrix=None, factors=(),
                 countable_repetition=False, descriptor="", is_uncountable=False,
                 missing_primes=(), corank_profile=()):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "countable_repetition", countable_repetition)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "is_uncountable", is_uncountable)
        object.__setattr__(self, "missing_primes", missing_primes)
        object.__setattr__(self, "corank_profile", corank_profile)

    # -- constructors (normalizing) ------------------------------------

    @staticmethod
    def zero():
        return StructuredGroup(tag="zero")

    @staticmethod
    def fg(group):
        if group.is_trivial():
            return StructuredGroup.zero()
        return StructuredGroup(tag="fg", group=group)

    @staticmethod
    def completion_quotient(rank, matrix):
        """Quotient of the completion along A; assumes the unit part of A
        was already split off, so |det| = 1 collapses to zero.

        The quotient is divisible: it is Q^(c) (+) sum_q (Z/q^inf)^(c_q),
        with c the continuum and c_q = rank - ord_x(chi_A mod q) exactly
        (`_corank_profile`), which is the full rank at every q not
        dividing det(A).  A divisible group is classified by these
        numbers, so the key (rank, missing primes, their c_q) determines
        the group and is determined by it.
        """
        if rank == 0 or abs(matrix.det()) == 1:
            return StructuredGroup.zero()
        return _completion_group("completion_quotient", rank, matrix)

    @staticmethod
    def completion(rank, matrix):
        if rank == 0 or abs(matrix.det()) == 1:
            return StructuredGroup.fg(free_group(rank))
        return _completion_group("completion", rank, matrix)

    @staticmethod
    def localization(group, matrix):
        if group.is_trivial():
            return StructuredGroup.zero()
        if abs(matrix.det()) == 1:
            return StructuredGroup.fg(group)
        return StructuredGroup(tag="localization", group=group, matrix=matrix,
                               rank=group.rank)

    @staticmethod
    def full_product(descriptor="Z"):
        return StructuredGroup(tag="full_product", descriptor=descriptor,
                               is_uncountable=True)

    @staticmethod
    def product_of(factors, countable_repetition=False):
        factors = tuple(factors)
        if all(f.tag == "zero" for f in factors):
            return StructuredGroup.zero()
        unc = countable_repetition or any(f.is_uncountable for f in factors)
        return StructuredGroup(tag="product_of", factors=factors,
                               countable_repetition=countable_repetition,
                               is_uncountable=unc)

    @staticmethod
    def direct_sum(parts):
        parts = tuple(p for p in parts if p.tag != "zero")
        if not parts:
            return StructuredGroup.zero()
        if len(parts) == 1:
            return parts[0]
        return StructuredGroup(tag="direct_sum", factors=parts,
                               is_uncountable=any(p.is_uncountable for p in parts))

    @staticmethod
    def depth_limited(report):
        return StructuredGroup(tag="depth_limited", descriptor=report)

    # -- queries --------------------------------------------------------

    @property
    def is_trivial(self):
        return self.tag == "zero"

    def is_fg_free(self):
        if self.tag == "zero":
            return True
        return self.tag == "fg" and not self.group.torsion

    def canonical_key(self):
        if self.tag == "zero":
            return ("zero",)
        if self.tag == "fg":
            r, t = self.group.smith_invariants
            return ("fg", r, tuple(t))
        if self.tag in ("completion_quotient", "completion"):
            return (self.tag, self.rank, self.missing_primes, self.corank_profile)
        if self.tag == "localization":
            r, t = self.group.smith_invariants
            return ("localization", r, tuple(t),
                    tuple(prime_factors(self.matrix.det())))
        if self.tag == "full_product":
            return ("full_product", self.descriptor)
        if self.tag == "product_of":
            return ("product_of", self.countable_repetition,
                    tuple(f.canonical_key() for f in self.factors))
        if self.tag == "direct_sum":
            return ("direct_sum", tuple(f.canonical_key() for f in self.factors))
        return ("depth_limited", self.descriptor)

    def render(self):
        """Conventional notation: Z^r (+) Z/d, Z_p/Z, L[1/A], prod Z."""
        if self.tag == "zero":
            return "0"
        if self.tag == "fg":
            return self.group.describe()
        if self.tag == "completion_quotient":
            return "%s/%s" % (self._completion_name(), _free_name(self.rank))
        if self.tag == "completion":
            return self._completion_name()
        if self.tag == "localization":
            d = abs(self.matrix.det())
            if self.group.smith_invariants == (1, []):
                return "Z[1/%d]" % d
            return "%s[1/A]" % self.group.describe()
        if self.tag == "full_product":
            return "prod %s" % self.descriptor
        if self.tag == "product_of":
            inner = sorted({f.render() for f in self.factors})
            return "prod(%s)" % ", ".join(inner)
        if self.tag == "direct_sum":
            return " (+) ".join(f.render() for f in self.factors)
        return "depth-limited: %s" % self.descriptor

    def _completion_name(self):
        # one missing prime p means |det| is a power of p
        if self.rank == 1 and len(self.missing_primes) == 1:
            return "Z_%d" % self.missing_primes[0]
        return "Lambda_A(%s)" % _free_name(self.rank)

    def to_json(self):
        out = {"tag": self.tag, "render": self.render(),
               "is_trivial": self.tag == "zero",
               "is_uncountable": self.is_uncountable}
        if self.tag in ("fg", "localization"):
            r, t = self.group.smith_invariants
            out["invariants"] = {"rank": r, "torsion": list(t)}
        if self.tag in ("completion_quotient", "completion"):
            out["lattice_rank"] = self.rank
            out["matrix"] = [list(r) for r in self.matrix.data]
            out["missing_primes"] = list(self.missing_primes)
            out["present_primes"] = "all primes outside missing_primes"
            out["corank_profile"] = [list(x) for x in self.corank_profile]
        if self.tag == "localization":
            out["matrix"] = [list(r) for r in self.matrix.data]
            out["inverted_primes"] = prime_factors(self.matrix.det())
        if self.tag == "product_of":
            out["factors"] = [f.to_json() for f in self.factors]
            out["countable_repetition"] = self.countable_repetition
        if self.tag == "direct_sum":
            out["parts"] = [f.to_json() for f in self.factors]
        if self.tag in ("full_product", "depth_limited"):
            out["descriptor"] = self.descriptor
        return out


def _free_name(rank):
    return "Z" if rank == 1 else "Z^%d" % rank


def _completion_group(tag, rank, matrix):
    """The completion or its quotient along a matrix with |det| > 1."""
    primes = tuple(prime_factors(matrix.det()))
    return StructuredGroup(tag=tag, rank=rank, matrix=matrix, is_uncountable=True,
                           missing_primes=primes,
                           corank_profile=_corank_profile(matrix, primes))


def corank_difference(a, b):
    """(q, c_q of a, c_q of b) at the first prime q where the corank
    profiles of two completion quotients of equal rank differ, or None.
    c_q is the full rank at every prime q not dividing det(A)."""
    if a.tag != "completion_quotient" or b.tag != "completion_quotient" \
            or a.rank != b.rank:
        return None
    pa, pb = dict(a.corank_profile), dict(b.corank_profile)
    for q in sorted(set(pa) | set(pb)):
        ca, cb = pa.get(q, a.rank), pb.get(q, b.rank)
        if ca != cb:
            return q, ca, cb
    return None


def compare_structured(a, b):
    """Three-valued comparator: 'equal', 'distinct' or 'undecided'.

    Equality of canonical keys is descriptor equality.  Distinctness is
    claimed only on sound invariants: f.g. invariants, triviality,
    countability, and the keys of completion quotients.  A completion
    quotient is divisible, Q^(c) (+) sum_q (Z/q^inf)^(c_q) with c the
    continuum, and divisible groups are classified by their q-torsion
    coranks c_q; its key lists them exactly (the full rank at primes
    away from det(A)), so two completion quotients with different keys
    are distinct.
    """
    if a.canonical_key() == b.canonical_key():
        return "equal"
    if "depth_limited" in (a.tag, b.tag):
        return "undecided"
    if (a.tag == "zero") != (b.tag == "zero"):
        return "distinct"
    if a.is_uncountable != b.is_uncountable:
        return "distinct"
    if a.tag == "fg" and b.tag == "fg":
        return "distinct"
    if "fg" in (a.tag, b.tag) and {a.tag, b.tag} <= {"fg", "localization"}:
        # a proper localization is never finitely generated
        return "distinct"
    if a.tag == "completion_quotient" and b.tag == "completion_quotient":
        return "distinct"
    return "undecided"
