(** Descriptive statistics and histograms for Monte-Carlo post-processing. *)

type summary = {
  n : int;
  mean : float;
  std : float;  (** sample standard deviation (n-1 denominator, 0 if n<2) *)
  min : float;
  max : float;
  median : float;
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty sample. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation between
    order statistics. Raises [Invalid_argument] on an empty sample. *)

type histogram = {
  lo : float;
  hi : float;
  counts : int array;  (** one bucket per bin, values clamped into range *)
}

val histogram : bins:int -> float array -> histogram
(** Equal-width histogram spanning the sample range (or [\[0,1\]] when the
    sample is degenerate). Requires [bins > 0] and a non-empty sample. *)

val bin_centers : histogram -> float array

val pp_histogram : ?width:int -> Format.formatter -> histogram -> unit
(** ASCII rendering with at most [width] (default 40) marks per bar. *)
