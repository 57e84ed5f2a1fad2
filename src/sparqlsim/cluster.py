"""Simulated m-node cluster: placement, shuffles, broadcasts, accounting.

A relation here is a logical multiset of positional rows of term ids (see
:mod:`sparqlsim.terms`) under its own column order, plus a physical layout:
one chunk per node, each row on exactly one node, and a key: the set of
variables the layout is hash-partitioned on.

* keyed on V (a nonempty key): every row lives on ``node_of(row, V, m)``;
* random (the empty key): rows live anywhere.

All data movement flows through :func:`shuffle` and :func:`broadcast`, which
charge the :class:`TransferLedger` of the operator that calls them; the
executor keeps one such ledger on each operator's trace entry, and a run's
ledger is their sum. A broadcast copy is not a relation: it is the row tuple
every node reads during one broadcast join. A ledger keeps two shuffle
counters: the modeled count charges the full relation size (the
cost-model convention) and the actual count only rows that really change
nodes, so co-location savings stay visible. ``actual <= modeled`` always
holds.

The node count m lives in the data: a :class:`Dataset` holds one group
table per node and a :class:`Relation` one chunk per node, and operators
read m from their inputs. A :class:`Cluster` is only what a store is
loaded onto.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Sequence, TypeVar

from .terms import (
    H64, TERMS, BindingRow, Term, Triple, fnv1a_64, id_hash64, term_hash64,
)

T = TypeVar("T")

# A relation's row: the id of one ground term per column, in the order of
# the relation's ``columns``, so operators read and cut rows by position.
Row = tuple[int, ...]

# A stored predicate group: the subject ids and the object ids of its
# triples, two columns of the same length.
IdColumns = tuple[tuple[int, ...], tuple[int, ...]]

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


def placement(columns: Sequence[Term], key: Iterable[Term],
              m: int) -> Callable[[Sequence[Row]], list[int]]:
    """Destination function for rows over ``columns`` under hash
    partitioning on ``key``: it maps a chunk of rows to the node index of
    each row, in row order, and agrees with :func:`node_of` on the decoded
    row. A one-variable key reads the placement hash of the id at its
    position from :data:`~sparqlsim.terms.H64`, in one comprehension over
    the key column; a wider key hashes the decoded terms, in the key order
    :func:`node_of` uses, once per distinct id tuple."""
    key_vars = sorted(key)
    if not key_vars:
        raise ValueError("partition key must be nonempty")
    missing = [v for v in key_vars if v not in columns]
    if missing:
        raise UnboundKeyError(
            f"columns {list(columns)} do not bind partition key {missing}")
    positions = [columns.index(v) for v in key_vars]
    if len(positions) == 1:
        column = itemgetter(positions[0])
        h64 = H64

        def dests_of(rows: Sequence[Row]) -> list[int]:
            return [(h64[i] or id_hash64(i)) % m for i in map(column, rows)]

        return dests_of

    pick = itemgetter(*positions)
    memo: dict[Row, int] = {}

    def dests_of(rows: Sequence[Row]) -> list[int]:
        keys = list(map(pick, rows))
        for found in set(keys).difference(memo):
            memo[found] = key_hash64([TERMS[i] for i in found]) % m
        return list(map(memo.__getitem__, keys))

    return dests_of


def render_key(key: frozenset[Term]) -> str:
    """A layout as explain and placement errors print it: ``keyed{x,y}``,
    or ``random`` for the empty key."""
    if key:
        return f"keyed{{{','.join(v.lexical for v in sorted(key))}}}"
    return "random"


@dataclass(frozen=True, slots=True)
class Cluster:
    """The node count a store is loaded onto (:func:`load_partitioned`).
    Past loading, a store and every relation carry their own m, and
    operators read it from the data they are given."""

    m: int

    def __post_init__(self):
        problem = node_count_problem([self.m])
        if problem:
            raise ValueError(f"node count: {problem}")


def for_each_node(m: int, task: Callable[[int], T]) -> list[T]:
    """Run a node-local task on each of ``m`` nodes and collect results by
    node index.

    Tasks must be pure with respect to scheduling: the engine runs them
    sequentially, and every operator built on this helper is required to
    produce the same result under any interleaving. Errors propagate from the
    lowest failing node index.
    """
    return [task(j) for j in range(m)]


@dataclass(slots=True)
class TransferLedger:
    """Counters for tuples scanned, shuffled and broadcast: one operator's
    charges, or their sum over a run."""

    scanned_tuples: int = 0
    shuffled_tuples_modeled: int = 0
    shuffled_tuples_actual: int = 0
    broadcast_tuples: int = 0

    def tally(self, *, scanned: int = 0, shuffled_modeled: int = 0,
              shuffled_actual: int = 0, broadcast: int = 0) -> None:
        for name, delta in (("scanned", scanned), ("shuffled_modeled", shuffled_modeled),
                            ("shuffled_actual", shuffled_actual), ("broadcast", broadcast)):
            if delta < 0:
                raise ValueError(f"ledger deltas must be nonnegative: {name}={delta}")
        self.scanned_tuples += scanned
        self.shuffled_tuples_modeled += shuffled_modeled
        self.shuffled_tuples_actual += shuffled_actual
        self.broadcast_tuples += broadcast

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


def _binding_decoder(columns: Sequence[Term]) -> Callable[[Row], BindingRow]:
    """Decode a row over ``columns`` to its :class:`BindingRow`, whose pairs
    are in sorted variable order."""
    pairs = sorted((v, i) for i, v in enumerate(columns))
    terms = TERMS
    return lambda row: BindingRow([(v, terms[row[i]]) for v, i in pairs])


@dataclass(frozen=True, slots=True)
class Relation:
    """A distributed bag of :data:`Row` tuples: the variables in row
    position order, per-node chunks, and the key the layout is hashed on
    (empty: random placement). :meth:`rows` decodes the bag to
    :class:`BindingRow` for results and verification."""

    columns: tuple[Term, ...]
    chunks: tuple[tuple[Row, ...], ...]
    key: frozenset[Term]
    # The variable set and the logical row count. Columns and chunks are
    # immutable, so both are derived once here: planners and the trace read
    # them on every step.
    schema: frozenset[Term] = field(init=False, compare=False, repr=False)
    count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.chunks:
            raise ValueError("a relation needs at least one node chunk")
        object.__setattr__(self, "schema", frozenset(self.columns))
        object.__setattr__(self, "count", sum(map(len, self.chunks)))

    @property
    def m(self) -> int:
        return len(self.chunks)

    def tuples(self) -> list[Row]:
        """The logical multiset of positional rows, in deterministic
        node-then-chunk order."""
        out: list[Row] = []
        for chunk in self.chunks:
            out.extend(chunk)
        return out

    def rows(self) -> list[BindingRow]:
        """The logical multiset decoded to binding rows, in the order of
        :meth:`tuples`."""
        return list(map(_binding_decoder(self.columns), self.tuples()))


def shuffle(rel: Relation, key: Iterable[Term], ledger: TransferLedger) -> Relation:
    """Repartition a relation by hash on ``key``.

    Charges the full logical size to the modeled counter; the actual counter
    gets only rows whose destination differs from their current node.
    """
    key_set = frozenset(key)
    if not key_set:
        raise ValueError("cannot shuffle on an empty key")
    if not key_set <= rel.schema:
        missing = ", ".join(v.nt() for v in sorted(key_set - rel.schema))
        raise ValueError(f"shuffle key not in relation schema: {missing}")
    m = rel.m
    dests_of = placement(rel.columns, key_set, m)
    buckets: list[list[Row]] = [[] for _ in range(m)]
    moved = 0
    for j, chunk in enumerate(rel.chunks):
        dests = dests_of(chunk)
        moved += len(chunk) - dests.count(j)
        for dest, row in zip(dests, chunk):
            buckets[dest].append(row)
    ledger.tally(shuffled_modeled=rel.count, shuffled_actual=moved)
    return Relation(rel.columns, tuple(tuple(b) for b in buckets), key_set)


def broadcast(rel: Relation, ledger: TransferLedger) -> tuple[Row, ...]:
    """Ship a relation to every node, charging (m-1) copies of its size, and
    return the one row tuple that every node reads."""
    full = tuple(rel.tuples())
    ledger.tally(broadcast=(rel.m - 1) * len(full))
    return full


class PlacementError(AssertionError):
    """A relation's chunks violate its declared key."""


def check_placement(rel: Relation) -> None:
    """Verify by full scan that every row sits where the relation's key
    places it, that no column repeats, that every row has one term id per
    column, and that the stored row count is the chunks' total. Keyed
    placement is checked with :func:`node_of` on the decoded row,
    independently of :func:`placement`. Test-build helper; operators do not
    pay for this in normal runs."""
    m = rel.m
    total = sum(map(len, rel.chunks))
    if rel.count != total:
        raise PlacementError(f"relation counts {rel.count} rows, its chunks hold {total}")
    columns = rel.columns
    if len(rel.schema) != len(columns):
        raise PlacementError(f"columns {list(columns)} repeat a variable")
    for chunk in rel.chunks:
        for row in chunk:
            if len(row) != len(columns):
                raise PlacementError(
                    f"row {row!r} has {len(row)} terms for columns {list(columns)}")
    if rel.key:
        decode = _binding_decoder(columns)
        for j, chunk in enumerate(rel.chunks):
            for row in chunk:
                expect = node_of(decode(row), rel.key, m)
                if expect != j:
                    raise PlacementError(
                        f"row {row!r} on node {j}, expected node {expect} "
                        f"under key {render_key(rel.key)}")


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


# The node count and store partitioning wherever a run names none, and the
# largest node count a run accepts: the store and every relation hold one
# table or chunk per node, so an unbounded m is an unbounded allocation.
DEFAULT_NODE_COUNT = 4
MAX_NODE_COUNT = 1024
DEFAULT_PARTITIONING = BasePartition.SUBJECT.value


def node_count_problem(counts: Sequence[object]) -> str | None:
    """Why ``counts`` are not all node counts a run accepts, integers (not
    bools) in 1..MAX_NODE_COUNT, naming every offending count; None when
    they are."""
    wrong = [repr(m) for m in counts if type(m) is not int]
    if wrong:
        return f"not an integer: {', '.join(wrong)}"
    for bad, bound in (([m for m in counts if m < 1], "at least 1"),
                       ([m for m in counts if m > MAX_NODE_COUNT],
                        f"at most {MAX_NODE_COUNT}")):
        if bad:
            return f"must be {bound}, got {', '.join(map(str, bad))}"
    return None


@dataclass(frozen=True)
class Dataset:
    """A distributed triple store, kept by predicate (vertical
    partitioning): ``groups[j]`` maps each predicate id to node ``j``'s
    triples of that predicate as two id columns, ``(subjects, objects)``,
    in load order, predicates in order of first appearance; ``base`` is the
    partitioning the nodes satisfy. A triple is the pair at one index of
    its group's columns, under the group's predicate.

    A selection with a ground predicate reads just its own group. The cost
    model does not see the layout: a selection is still charged a full pass
    over the store."""

    groups: tuple[dict[int, IdColumns], ...]
    base: BasePartition

    @property
    def m(self) -> int:
        return len(self.groups)

    @cached_property
    def size(self) -> int:
        # Every selection reads the size for its scan charge: count once.
        return sum(self.node_counts())

    def node_counts(self) -> list[int]:
        return [sum(len(subjects) for subjects, _ in node.values())
                for node in self.groups]


def check_loaded_on(dataset: Dataset, cluster: Cluster) -> None:
    """Raise ValueError unless ``dataset`` is distributed over ``cluster``'s
    node count."""
    if dataset.m != cluster.m:
        raise ValueError(f"dataset is distributed over {dataset.m} nodes, "
                         f"cluster has {cluster.m}")


def load_partitioned(triples: Iterable[Triple], cluster: Cluster,
                     base: BasePartition) -> Dataset:
    """Distribute triples across the cluster, appending each triple's
    subject and object ids to its node's group of its predicate.

    Positional partitioning hashes the canonical form of the term at that
    position, exactly like single-variable row placement, so selections over
    a position-partitioned store come out keyed on the variable bound there.
    Random partitioning deals round-robin starting at node 0.
    """
    m = cluster.m
    groups: list[dict[int, tuple[list[int], list[int]]]] = [{} for _ in range(m)]
    pos = base.position
    h64 = H64
    j = 0
    for s, p, o in triples:
        s, p, o = s.id, p.id, o.id
        if pos is None:
            node = groups[j]
            j = (j + 1) % m
        else:
            i = s if pos == 0 else o if pos == 2 else p
            node = groups[(h64[i] or id_hash64(i)) % m]
        group = node.get(p)
        if group is None:
            node[p] = ([s], [o])
        else:
            group[0].append(s)
            group[1].append(o)
    return Dataset(tuple({p: (tuple(subjects), tuple(objects))
                          for p, (subjects, objects) in node.items()}
                         for node in groups), base)
