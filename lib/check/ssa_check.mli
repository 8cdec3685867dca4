(** SSA verifier: single definition, instr/block table agreement, φ
    placement and arity, operand validity, def-dominates-use for straight
    uses, per-edge availability for φ arguments, and no reachable use of a
    definition in an unreachable block.

    Subsumes the old [Ssa.Verify] exception-based check; raise-on-error
    callers use {!Check.check_exn}. Assumes {!Cfg_check} reported no
    errors. *)

val run : Ir.Func.t -> Diagnostic.t list
