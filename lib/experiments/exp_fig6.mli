(** Fig 6: Monte Carlo distributions of frequency, dynamic power and
    static power for the 15-stage ring oscillator under simultaneous
    width and impurity variations. *)

type result = {
  mc : Montecarlo.result;
  freq_hist : Stats.histogram;
  pdyn_hist : Stats.histogram;
  pstat_hist : Stats.histogram;
  freq_mean_shift_pct : float;  (** mean vs nominal (paper: −10%) *)
  pdyn_mean_shift_pct : float;  (** (paper: ≈ 0%) *)
  pstat_mean_shift_pct : float;  (** (paper: +23%) *)
}

val run : ?samples:int -> ?seed:int -> unit -> result

val print : Format.formatter -> result -> unit
