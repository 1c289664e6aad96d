(** The ["pmp"] engine: a replicated log on protected memory —
    Mu-style state machine replication built on the Protected Memory
    Paxos permission discipline.  A steady-state append is ONE
    replicated write (two delays), because write success certifies the
    absence of rivals; committed entries are broadcast to the followers,
    and a linearizable read costs one permission-protected lease write.
    The log machinery it shares with {!Velos} is {!Log_kernel}'s. *)

include Consensus_engine.S
