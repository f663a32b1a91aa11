"""Per-client peer-health tracking for gray-failure detection.

The paper's failure model is fail-silent (a node works or stops), and
the RPC layer's timeouts detect exactly that.  Production adds a third
state the timeouts are blind to: *gray* hosts that are alive but slow
-- they answer every probe, so no failover fires, and every read routed
to them queues behind a degraded NIC.  The
:class:`PeerHealthTracker` is the client-side antidote: it watches the
RPC outcomes :class:`~repro.naming.replica_io.ReplicaIO` already
observes (per-attempt latency on success, timeouts on failure) and
demotes peers that look gray, so the read failover walk steps around
them the same way it steps around crashed ones -- without ever
removing them from the ring (writes still fan out to every replica;
2PC, not health, decides write availability).

Detection is two-pronged:

- **Timeout scoring**: ``timeout_threshold`` *consecutive* timeouts
  demote the peer.  A single timeout is routine (a dropped datagram);
  a streak is a signal.
- **EWMA latency comparison**: each peer's observed RPC latency feeds
  an exponentially-weighted moving average; once a peer has
  ``min_samples`` observations and its EWMA exceeds
  ``latency_factor`` times the *median* healthy peer's, it is demoted.
  Comparing against the cohort (not an absolute bound) keeps the
  tracker calibration-free across latency models.

Demotion is never permanent: a demoted peer re-enters the preference
order after ``probation`` seconds of virtual time (a *trial*), and one
good observation promotes it for real while a bad one re-demotes it
for another probation period.  The tracker is deterministic -- no RNG,
clock injected -- so runs replay bit-for-bit.

Demotion needs evidence, and a peer that went dark a moment ago has
none yet.  The same EWMA therefore also sets the lock-free cache-fill
read's hedge delay (:meth:`hedge_after`): a read unanswered for
``latency_factor`` times its peer's EWMA is also sent to the next
replica (Dean & Barroso, "The Tail at Scale"), and the losing leg's
late outcome still lands here, so the streak that demotes the peer
keeps counting.
"""

from __future__ import annotations

from typing import Callable, Iterable


class PeerHealthTracker:
    """EWMA-latency + timeout-streak gray-peer demotion."""

    def __init__(self, clock: Callable[[], float], alpha: float = 0.2,
                 timeout_threshold: int = 2, latency_factor: float = 4.0,
                 min_samples: int = 8, probation: float = 10.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if timeout_threshold < 1:
            raise ValueError(
                f"timeout_threshold must be >= 1, got {timeout_threshold}")
        if latency_factor <= 1.0:
            raise ValueError(
                f"latency_factor must be > 1, got {latency_factor}")
        if probation <= 0.0:
            raise ValueError(f"probation must be > 0, got {probation}")
        self.clock = clock
        self.alpha = alpha
        self.timeout_threshold = timeout_threshold
        self.latency_factor = latency_factor
        self.min_samples = min_samples
        self.probation = probation
        self._ewma: dict[str, float] = {}
        self._samples: dict[str, int] = {}
        self._streak: dict[str, int] = {}
        self._demoted: dict[str, float] = {}  # peer -> trial time
        self.demotions = 0  # total demotion transitions (metric surface)

    # -- feeding observations ------------------------------------------------

    def observe(self, peer: str, latency: float) -> None:
        """Record one successful RPC's observed latency."""
        prev = self._ewma.get(peer)
        self._ewma[peer] = (latency if prev is None
                            else prev + self.alpha * (latency - prev))
        self._samples[peer] = self._samples.get(peer, 0) + 1
        self._streak[peer] = 0
        if peer in self._demoted:
            if self._slow(peer):
                # Trial failed: still an outlier; another probation.
                self._demoted[peer] = self.clock() + self.probation
            else:
                del self._demoted[peer]  # redeemed
        elif self._slow(peer):
            self._demote(peer)

    def timeout(self, peer: str) -> None:
        """Record one RPC timeout (or any transport-level failure)."""
        streak = self._streak.get(peer, 0) + 1
        self._streak[peer] = streak
        if streak >= self.timeout_threshold:
            self._demote(peer)

    # -- the verdict ---------------------------------------------------------

    def is_gray(self, peer: str) -> bool:
        """Demoted and not yet due for a trial."""
        trial_at = self._demoted.get(peer)
        return trial_at is not None and self.clock() < trial_at

    def hedge_after(self, peer: str) -> float | None:
        """How long a lock-free read to ``peer`` may go unanswered before
        the walk also asks the next replica: ``latency_factor`` times
        the peer's own EWMA.  ``None`` -- never hedge -- until the peer
        has ``min_samples`` observations."""
        if self._samples.get(peer, 0) < self.min_samples:
            return None
        return self.latency_factor * self._ewma[peer]

    def gray_peers(self) -> list[str]:
        return sorted(peer for peer in self._demoted if self.is_gray(peer))

    def reorder(self, order: Iterable[str]) -> list[str]:
        """Stable-partition a preference order: healthy first, gray last.

        Gray peers stay *in* the order (a fully-gray replica set must
        still serve; a gray replica is alive, just slow), they just
        stop being anyone's first choice.  A demoted peer past its
        probation is treated as healthy for the walk -- that trial
        read is how it redeems itself.
        """
        nodes = list(order)
        healthy = [node for node in nodes if not self.is_gray(node)]
        if len(healthy) == len(nodes):
            return nodes
        return healthy + [node for node in nodes if self.is_gray(node)]

    # -- internals -----------------------------------------------------------

    def _slow(self, peer: str) -> bool:
        if self._samples.get(peer, 0) < self.min_samples:
            return False
        cohort = sorted(ewma for name, ewma in self._ewma.items()
                        if name != peer and name not in self._demoted)
        if not cohort:
            return False
        baseline = cohort[len(cohort) // 2]
        return self._ewma[peer] > self.latency_factor * max(baseline, 1e-9)

    def _demote(self, peer: str) -> None:
        if peer not in self._demoted:
            self.demotions += 1
        self._demoted[peer] = self.clock() + self.probation
