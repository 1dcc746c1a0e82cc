(** The robustness slice of an obs snapshot, behind the
    [robust-report] CLI subcommand: the armed fault campaign and the
    [robust.*] and table-cache failure counters.  The failure taxonomy
    is {!Robust_error}, fault injection is {!Fault} and the SCF ladder
    is [Scf_robust]; see docs/ROBUST.md for ladder semantics, the
    fault-spec grammar and the metric inventory. *)

module Report : sig
  type t = {
    fault_spec : string option;  (** armed campaign, if any *)
    counters : (string * int) list;
        (** the robustness counters ([robust.*] plus the table-cache
            failure counters), sorted by name *)
  }

  val collect : unit -> t
  (** Snapshot the robustness counters from {!Obs.global}. *)

  val total_injected : t -> int
  (** Sum of the [robust.fault.*] counters. *)

  val pp : Format.formatter -> t -> unit
end
