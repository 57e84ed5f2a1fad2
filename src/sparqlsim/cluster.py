"""Simulated m-node cluster: placement, shuffles, broadcasts, accounting.

A relation here is a logical multiset of positional rows plus a physical
layout: one chunk per node and a partition state describing what the layout
guarantees. The state is one of

* ``Keyed(V)``: every row lives on ``node_of(row, V, m)``;
* ``Random``: rows live anywhere, each on exactly one node;
* ``Replicated``: every node holds the full multiset.

All data movement flows through :func:`shuffle` and :func:`broadcast`, which
charge a :class:`TransferLedger`. The ledger keeps two shuffle counters: the
modeled count charges the full relation size (the cost-model convention) and
the actual count only rows that really change nodes, so co-location savings
stay visible. ``actual <= modeled`` always holds.
"""

from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterable, Sequence, TypeVar

from .terms import BindingRow, Term, TermKind, Triple

T = TypeVar("T")

# A relation's row: one ground term per schema variable, in sorted variable
# order, so operators read and cut rows by position.
Row = tuple[Term, ...]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = (1 << 64) - 1


def fnv1a_64(data: bytes, state: int = _FNV_OFFSET) -> int:
    """FNV-1a 64-bit hash. Deterministic across processes and platforms,
    unlike Python's seeded str hash.

    The hash folds bytes in order, so ``fnv1a_64(b, fnv1a_64(a))`` equals
    ``fnv1a_64(a + b)``: passing the state reached after a prefix resumes
    the hash there."""
    h = state
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _FNV_MASK
    return h


# FNV state after "<" plus an IRI's namespace (everything up to and
# including its last "/"); one entry per namespace, so IRIs that share one
# hash only their local names.
_namespace_state: dict[str, int] = {}


def term_hash64(term: Term) -> int:
    """Placement hash of a single term: the FNV-1a hash of its canonical
    serialization, cached on the term object."""
    h = term._h64
    if h is None:
        if term.kind is TermKind.IRI:
            lexical = term.lexical
            cut = lexical.rfind("/") + 1
            namespace = lexical[:cut]
            state = _namespace_state.get(namespace)
            if state is None:
                state = _namespace_state[namespace] = fnv1a_64(
                    ("<" + namespace).encode("utf-8"))
            h = fnv1a_64((lexical[cut:] + ">").encode("utf-8"), state)
        else:
            h = fnv1a_64(term.nt().encode("utf-8"))
        object.__setattr__(term, "_h64", h)
    return h


_KEY_SEP = "\x1f"


def key_hash64(terms: Sequence[Term]) -> int:
    """Placement hash of a key tuple: the FNV-1a hash of the canonical
    serializations joined in order. A one-term key hashes exactly like the
    bare term, so triples partitioned by a position stay co-located with
    selection rows keyed on the variable bound at that position."""
    if len(terms) == 1:
        return term_hash64(terms[0])
    return fnv1a_64(_KEY_SEP.join(t.nt() for t in terms).encode("utf-8"))


class UnboundKeyError(ValueError):
    """A row was hashed on a key variable it does not bind."""


def node_of(row: BindingRow, key: Iterable[Term], m: int) -> int:
    """Node index for a row under hash partitioning on ``key``.

    Key variables are taken in their lexicographic (term) order regardless of
    the order of ``key``, so the placement is a function of the set.
    """
    if m < 1:
        raise ValueError(f"node count must be >= 1, got {m}")
    key_vars = sorted(key)
    if not key_vars:
        raise ValueError("partition key must be nonempty")
    terms = []
    for v in key_vars:
        t = row.get(v)
        if t is None:
            raise UnboundKeyError(f"row {row!r} does not bind partition key {v!r}")
        terms.append(t)
    return key_hash64(terms) % m


def placement(schema: Iterable[Term], key: Iterable[Term],
              m: int) -> Callable[[Row], int]:
    """Node index function for the rows of one relation under hash
    partitioning on ``key``; it agrees with :func:`node_of` on the decoded
    row. Key terms are read by position and destinations are memoized per
    key term (or tuple of key terms)."""
    order = sorted(schema)
    key_vars = sorted(key)
    if not key_vars:
        raise ValueError("partition key must be nonempty")
    missing = [v for v in key_vars if v not in order]
    if missing:
        raise UnboundKeyError(f"schema {order} does not bind partition key {missing}")
    pick = itemgetter(*(order.index(v) for v in key_vars))
    single = len(key_vars) == 1
    memo: dict = {}

    def dest_of(row: Row) -> int:
        found = pick(row)
        dest = memo.get(found)
        if dest is None:
            dest = memo[found] = key_hash64((found,) if single else found) % m
        return dest

    return dest_of


class PartitionKind(Enum):
    KEYED = "keyed"
    RANDOM = "random"
    REPLICATED = "replicated"


@dataclass(frozen=True, slots=True)
class PartitionState:
    kind: PartitionKind
    key: frozenset[Term] = frozenset()

    def __post_init__(self):
        if self.kind is PartitionKind.KEYED:
            if not self.key:
                raise ValueError("Keyed partition state requires a nonempty key")
            if not all(v.is_variable for v in self.key):
                raise ValueError("partition key must consist of variables")
        elif self.key:
            raise ValueError(f"{self.kind.value} partition state cannot carry a key")

    def is_keyed_on(self, key: frozenset[Term]) -> bool:
        return self.kind is PartitionKind.KEYED and self.key == key

    @property
    def is_replicated(self) -> bool:
        return self.kind is PartitionKind.REPLICATED

    def render(self) -> str:
        if self.kind is PartitionKind.KEYED:
            names = ",".join(v.lexical for v in sorted(self.key))
            return f"keyed{{{names}}}"
        return self.kind.value


RANDOM_STATE = PartitionState(PartitionKind.RANDOM)


def keyed(key: Iterable[Term]) -> PartitionState:
    return PartitionState(PartitionKind.KEYED, frozenset(key))


def replicated() -> PartitionState:
    return PartitionState(PartitionKind.REPLICATED)


@dataclass(frozen=True, slots=True)
class Cluster:
    """A simulated cluster is just a node count; node storage lives on the
    relations themselves."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"cluster needs at least one node, got m={self.m}")

    @property
    def nodes(self) -> range:
        return range(self.m)


def for_each_node(cluster: Cluster, task: Callable[[int], T]) -> list[T]:
    """Run a node-local task on every node and collect results by node index.

    Tasks must be pure with respect to scheduling: the engine runs them
    sequentially, and every operator built on this helper is required to
    produce the same result under any interleaving. Errors propagate from the
    lowest failing node index.
    """
    return [task(j) for j in cluster.nodes]


@dataclass(slots=True)
class OperatorCounters:
    operator: str
    scanned: int = 0
    shuffled_modeled: int = 0
    shuffled_actual: int = 0
    broadcast: int = 0

    def as_dict(self) -> dict:
        return {
            "operator": self.operator,
            "scanned": self.scanned,
            "shuffled_modeled": self.shuffled_modeled,
            "shuffled_actual": self.shuffled_actual,
            "broadcast": self.broadcast,
        }


class TransferLedger:
    """Monotone counters for tuples scanned, shuffled, and broadcast, with a
    per-operator breakdown keyed by operator id."""

    __slots__ = ("scanned_tuples", "shuffled_tuples_modeled", "shuffled_tuples_actual",
                 "broadcast_tuples", "per_operator")

    def __init__(self):
        self.scanned_tuples = 0
        self.shuffled_tuples_modeled = 0
        self.shuffled_tuples_actual = 0
        self.broadcast_tuples = 0
        self.per_operator: dict[str, OperatorCounters] = {}

    def tally(self, operator: str, *, scanned: int = 0, shuffled_modeled: int = 0,
              shuffled_actual: int = 0, broadcast: int = 0) -> None:
        for name, delta in (("scanned", scanned), ("shuffled_modeled", shuffled_modeled),
                            ("shuffled_actual", shuffled_actual), ("broadcast", broadcast)):
            if delta < 0:
                raise ValueError(f"ledger deltas must be nonnegative: {name}={delta}")
        self.scanned_tuples += scanned
        self.shuffled_tuples_modeled += shuffled_modeled
        self.shuffled_tuples_actual += shuffled_actual
        self.broadcast_tuples += broadcast
        entry = self.per_operator.get(operator)
        if entry is None:
            entry = self.per_operator[operator] = OperatorCounters(operator)
        entry.scanned += scanned
        entry.shuffled_modeled += shuffled_modeled
        entry.shuffled_actual += shuffled_actual
        entry.broadcast += broadcast

    @property
    def total_transfer(self) -> int:
        """Modeled tuples moved over the interconnect (shuffles plus
        broadcast copies)."""
        return self.shuffled_tuples_modeled + self.broadcast_tuples

    def totals(self) -> dict:
        return {
            "scanned": self.scanned_tuples,
            "shuffled_modeled": self.shuffled_tuples_modeled,
            "shuffled_actual": self.shuffled_tuples_actual,
            "broadcast": self.broadcast_tuples,
        }

    def as_dict(self) -> dict:
        d = self.totals()
        d["per_operator"] = [c.as_dict() for c in self.per_operator.values()]
        return d


@dataclass(frozen=True, slots=True)
class Relation:
    """A distributed bag of :data:`Row` tuples: per-node chunks plus the
    partition state the layout satisfies. For replicated relations every
    chunk holds the full multiset and :meth:`tuples` returns a single copy;
    :meth:`rows` decodes it to :class:`BindingRow` for results and
    verification."""

    schema: frozenset[Term]
    chunks: tuple[tuple[Row, ...], ...]
    partition: PartitionState

    def __post_init__(self):
        if not self.chunks:
            raise ValueError("a relation needs at least one node chunk")

    @property
    def m(self) -> int:
        return len(self.chunks)

    @property
    def count(self) -> int:
        """Logical row count (one copy for replicated relations)."""
        if self.partition.is_replicated:
            return len(self.chunks[0])
        return sum(len(c) for c in self.chunks)

    def tuples(self) -> list[Row]:
        """The logical multiset of positional rows, in deterministic
        node-then-chunk order."""
        if self.partition.is_replicated:
            return list(self.chunks[0])
        out: list[Row] = []
        for chunk in self.chunks:
            out.extend(chunk)
        return out

    def rows(self) -> list[BindingRow]:
        """The logical multiset decoded to binding rows, in the order of
        :meth:`tuples`."""
        order = sorted(self.schema)
        return [BindingRow(tuple(zip(order, row))) for row in self.tuples()]


def shuffle(rel: Relation, key: Iterable[Term], ledger: TransferLedger,
            operator: str = "shuffle") -> Relation:
    """Repartition a relation by hash on ``key``.

    Charges the full logical size to the modeled counter; the actual counter
    gets only rows whose destination differs from their current node. A
    replicated input is collapsed back to one copy first.
    """
    key_set = frozenset(key)
    if not key_set:
        raise ValueError("cannot shuffle on an empty key")
    if not key_set <= rel.schema:
        missing = ", ".join(v.nt() for v in sorted(key_set - rel.schema))
        raise ValueError(f"shuffle key not in relation schema: {missing}")
    m = rel.m
    dest_of = placement(rel.schema, key_set, m)
    buckets: list[list[Row]] = [[] for _ in range(m)]
    moved = 0

    if rel.partition.is_replicated:
        # Every node already holds every row; collapsing to a keyed layout
        # just drops the non-owned copies, so nothing actually moves.
        for row in rel.chunks[0]:
            buckets[dest_of(row)].append(row)
    else:
        for j, chunk in enumerate(rel.chunks):
            for row in chunk:
                dest = dest_of(row)
                if dest != j:
                    moved += 1
                buckets[dest].append(row)
    ledger.tally(operator, shuffled_modeled=rel.count, shuffled_actual=moved)
    return Relation(rel.schema, tuple(tuple(b) for b in buckets), keyed(key_set))


def broadcast(rel: Relation, ledger: TransferLedger,
              operator: str = "broadcast") -> Relation:
    """Replicate a relation to every node, charging (m-1) copies of its size.
    Broadcasting an already replicated relation is a free no-op."""
    if rel.partition.is_replicated:
        return rel
    full = tuple(rel.tuples())
    m = rel.m
    ledger.tally(operator, broadcast=(m - 1) * len(full))
    return Relation(rel.schema, tuple(full for _ in range(m)), replicated())


class PlacementError(AssertionError):
    """A relation's chunks violate its declared partition state."""


def check_placement(rel: Relation) -> None:
    """Verify the partition-state invariant by full scan, and that every row
    has one term per schema variable. Keyed placement is checked with
    :func:`node_of` on the decoded row, independently of :func:`placement`.
    Test-build helper; operators do not pay for this in normal runs."""
    m = rel.m
    order = sorted(rel.schema)
    for chunk in rel.chunks:
        for row in chunk:
            if len(row) != len(order):
                raise PlacementError(
                    f"row {row!r} has {len(row)} terms for schema {order}")
    if rel.partition.kind is PartitionKind.KEYED:
        for j, chunk in enumerate(rel.chunks):
            for row in chunk:
                expect = node_of(BindingRow(tuple(zip(order, row))),
                                 rel.partition.key, m)
                if expect != j:
                    raise PlacementError(
                        f"row {row!r} on node {j}, expected node {expect} "
                        f"under key {rel.partition.render()}")
    elif rel.partition.is_replicated:
        first = rel.chunks[0]
        for j, chunk in enumerate(rel.chunks[1:], start=1):
            if chunk != first:
                raise PlacementError(f"replicated chunks differ between node 0 and node {j}")


class BasePartition(Enum):
    """How the raw triple store is distributed across nodes."""

    SUBJECT = "subject"
    PREDICATE = "predicate"
    OBJECT = "object"
    RANDOM = "random"

    @property
    def position(self) -> int | None:
        if self is BasePartition.SUBJECT:
            return 0
        if self is BasePartition.PREDICATE:
            return 1
        if self is BasePartition.OBJECT:
            return 2
        return None


def _predicate_groups(chunk: Iterable[Triple]) -> dict[Term, tuple[Triple, ...]]:
    """One node's predicate index: each predicate of ``chunk`` maps to its
    triples, in chunk order."""
    groups: dict[Term, list[Triple]] = {}
    for t in chunk:
        group = groups.get(t.p)
        if group is None:
            groups[t.p] = [t]
        else:
            group.append(t)
    return {p: tuple(group) for p, group in groups.items()}


@dataclass(frozen=True, slots=True)
class Dataset:
    """A distributed triple store: per-node triple chunks plus the base
    partitioning they satisfy.

    ``index`` is a per-node predicate index, built from the chunks: for
    node ``j``, ``index[j]`` maps each predicate to that node's triples of
    the predicate, in chunk order, predicates in order of first appearance.
    It holds references to the chunk triples only, and lets a selection
    with a ground predicate read just its own triples (vertical
    partitioning). The cost model does not see it: a selection is still
    charged a full pass over the store."""

    chunks: tuple[tuple[Triple, ...], ...]
    base: BasePartition
    index: tuple[dict[Term, tuple[Triple, ...]], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index",
                           tuple(_predicate_groups(c) for c in self.chunks))

    @property
    def m(self) -> int:
        return len(self.chunks)

    @property
    def size(self) -> int:
        return sum(len(c) for c in self.chunks)

    def node_counts(self) -> list[int]:
        return [len(c) for c in self.chunks]


def load_partitioned(triples: Iterable[Triple], cluster: Cluster,
                     base: BasePartition) -> Dataset:
    """Distribute triples across the cluster.

    Positional partitioning hashes the canonical form of the term at that
    position, exactly like single-variable row placement, so selections over
    a position-partitioned store come out keyed on the variable bound there.
    Random partitioning deals round-robin starting at node 0.
    """
    buckets: list[list[Triple]] = [[] for _ in cluster.nodes]
    m = cluster.m
    pos = base.position
    if pos is None:
        j = 0
        for t in triples:
            buckets[j].append(t)
            j = (j + 1) % m
    else:
        for t in triples:
            buckets[term_hash64(t[pos]) % m].append(t)
    return Dataset(tuple(tuple(b) for b in buckets), base)
