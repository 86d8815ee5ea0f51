"""Arrival instances: a fixed server side plus an ordered sequence of client arrivals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class ArrivalInstance:
    """A bipartite instance in the vertex-arrival model.

    Servers ``0..server_count-1`` exist from the start.  ``arrivals[i]`` is
    ``(client_id, neighbors)`` where ``client_id == i`` (clients are numbered
    in arrival order) and ``neighbors`` is a strictly increasing tuple of
    server indices.  ``capacities`` is either ``None`` (every server can hold
    one client) or a tuple with one positive entry per server.

    Instances are immutable after construction and safe to share between
    concurrent runs.

    ``twin_classes`` numbers the distinct neighbor tuples in order of first
    appearance and gives each client its tuple's number, so twins (clients
    with equal tuples) share a class.  It is worked out once, in one pass,
    on first use and cached on the instance, and it is ``None`` unless at
    least half the clients repeat an earlier tuple: only then can the search
    gain from skipping twins (see the ``matching`` module docstring).
    """

    server_count: int
    arrivals: tuple[tuple[int, tuple[int, ...]], ...]
    capacities: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.server_count < 0:
            raise ValueError("server_count must be nonnegative")
        for position, (client_id, neighbors) in enumerate(self.arrivals):
            if client_id != position:
                raise ValueError(
                    f"client ids must be 0..n-1 in arrival order; "
                    f"found id {client_id} at position {position}"
                )
            for left, right in zip(neighbors, neighbors[1:]):
                if left >= right:
                    raise ValueError(f"neighbors of client {client_id} must be strictly increasing")
            if neighbors and not (0 <= neighbors[0] and neighbors[-1] < self.server_count):
                raise ValueError(f"client {client_id} references a server out of range")
        if self.capacities is not None:
            if len(self.capacities) != self.server_count:
                raise ValueError("capacities must cover every server")
            if any(u < 1 for u in self.capacities):
                raise ValueError("capacities must be positive")

    @staticmethod
    def build(
        server_count: int,
        neighbor_lists: Iterable[Iterable[int]],
        capacities: Sequence[int] | None = None,
    ) -> "ArrivalInstance":
        """Construct an instance from raw neighbor lists (sorted and deduplicated here)."""
        arrivals = tuple(
            (client_id, tuple(sorted(set(neighbors))))
            for client_id, neighbors in enumerate(neighbor_lists)
        )
        caps = None if capacities is None else tuple(capacities)
        return ArrivalInstance(server_count, arrivals, caps)

    @property
    def twin_classes(self) -> tuple[int, ...] | None:
        try:
            return self._twin_classes
        except AttributeError:
            pass
        classes: dict[tuple[int, ...], int] = {}
        table = tuple([classes.setdefault(neighbors, len(classes)) for _, neighbors in self.arrivals])
        if 2 * len(classes) > len(table):
            table = None
        # Set as an attribute, not through __dict__ as functools.cached_property
        # does: on CPython 3.11 touching __dict__ gives the instance a real dict,
        # which slows every later attribute read, by about 5% of a naive step.
        object.__setattr__(self, "_twin_classes", table)
        return table

    @property
    def client_count(self) -> int:
        return len(self.arrivals)

    def neighbors(self, client: int) -> tuple[int, ...]:
        return self.arrivals[client][1]

    def has_unit_capacities(self) -> bool:
        return self.capacities is None or all(u == 1 for u in self.capacities)

    def prefix_adjacency(self, prefix_len: int | None = None) -> dict[int, tuple[int, ...]]:
        """Adjacency of the first ``prefix_len`` clients, for flow analysis.

        Clients with no neighbors carry no flow and are omitted.
        """
        if prefix_len is None:
            prefix_len = self.client_count
        if not 0 <= prefix_len <= self.client_count:
            raise ValueError("prefix length out of range")
        out: dict[int, tuple[int, ...]] = {}
        for client_id, neighbors in self.arrivals[:prefix_len]:
            if neighbors:
                out[client_id] = neighbors
        return out
