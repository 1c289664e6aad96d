(** The ["velos"] engine: Velos-style one-sided Paxos (cf.
    arXiv:2106.08676).  Passive memory replicas; the leader commits by
    batched one-sided writes carrying a commit watermark; followers
    learn by polling a quorum of memories; failover swaps write
    permission and reconstructs state from replica memory; and leader
    leases on virtual time make a leased linearizable read cost {e zero}
    memory operations.  The follower poll interval is
    [anti_entropy_every] ([0.] means every 5 delays).

    See the implementation header for the watermark and lease safety
    arguments; DESIGN.md §14 has the engine-level comparison with the
    PMP log, whose machinery it shares through {!Log_kernel}. *)

include Consensus_engine.S

(** The lease register's codec: [(term, expiry)] on the shared virtual
    clock, the expiry printed exactly with ["%h"]. *)
val encode_lease : term:int -> until:float -> string

val decode_lease : string -> (int * float) option
