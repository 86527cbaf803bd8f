# The exact offline optimum, with a replayable witness schedule.
#
# The search walks the trace forward over reachable resident sets, memoized
# on (request index, resident set), and on each miss branches over the
# inclusion-minimal eviction subsets that make room.

import random
from fractions import Fraction as Fr

from cachelab import (
    FileSpec,
    LandlordPolicy,
    belady_opt,
    opt_cost,
    opt_cost_full_subsets,
    paging_sequence,
    replay_witness,
    run_trace,
)
from cachelab.offline import OptSearch

a = FileSpec("a", 2, Fr(4))
b = FileSpec("b", 1, Fr(1))
c = FileSpec("c", 2, Fr(3))

# a and c cannot coexist in 3 slots, so the second a must re-fault at k=3;
# at k=4 the optimum sacrifices b instead and keeps a resident.
for k in (3, 4):
    result = opt_cost([a, b, c, a], k)
    print(f"k={k}: min cost {result.min_cost}, witness {result.witness_schedule}")
    assert replay_witness([a, b, c, a], k, result.witness_schedule) == result.min_cost
assert opt_cost([a, b, c, a], 3).min_cost == 12
assert opt_cost([a, b, c, a], 4).min_cost == 8

# Minimal-subset branching loses nothing: holding a file is free, so any
# non-minimal eviction can be deferred.  The full-subset search is kept as
# an oracle for exactly this claim.
rng = random.Random(1)
pool = [FileSpec(f"f{i}", rng.randint(1, 3), Fr(rng.randint(0, 9))) for i in range(5)]
for _ in range(30):
    seq = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
    assert opt_cost(seq, 5).min_cost == opt_cost_full_subsets(seq, 5)
print("minimal-eviction branching == full-subset search on 30 random instances")

# On paging-shaped input (every size and cost 1) the farthest-in-future rule
# gives the same number, and opt_cost takes its schedule at any length.  On
# other input the search's exponential state space is guarded by the work it
# does, however many files there are: OptSearch refuses a request once the
# states it has expanded and the eviction sets it has relaxed pass a fixed
# budget, whether opt_cost drives it or a caller does request by request, as
# here, where it agrees with Belady on 40 requests.
items = [str(rng.randrange(7)) for _ in range(40)]
seq = paging_sequence(items)
search = OptSearch(4)
for g in seq:
    search.advance(g)
assert search.min_cost() == belady_opt(items, 4)
print(f"belady agrees with the search: {belady_opt(items, 4)} faults")
result = opt_cost(seq, 4)
assert replay_witness(seq, 4, result.witness_schedule) == result.min_cost
print(f"belady's schedule evicts at {sum(1 for _, ev in result.witness_schedule if ev)} "
      f"of its {result.min_cost} faults")

# And no online policy beats it.
optimum = result.min_cost
for policy in (LandlordPolicy.lru(), LandlordPolicy.fifo(), LandlordPolicy.fwf()):
    assert optimum <= run_trace(seq, 4, policy).total_cost
print("every online policy pays at least the optimum")
