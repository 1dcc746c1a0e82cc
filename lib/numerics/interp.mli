(** Interpolation on tabulated data: the backbone of the lookup-table circuit
    simulator. *)

val linear : xs:float array -> ys:float array -> float -> float
(** Piecewise-linear interpolation; clamps to the end values outside the
    table. [xs] must be strictly increasing with at least two points. *)

type spline
(** Natural cubic spline. *)

val spline : xs:float array -> ys:float array -> spline
(** Requires strictly increasing [xs] with at least three points. *)

val spline_eval : spline -> float -> float
(** Clamps outside the knot range. *)

val spline_deriv : spline -> float -> float
(** First derivative of the spline (clamped outside the knot range). *)

type grid2
(** Function sampled on a rectilinear [xs] × [ys] grid. *)

val grid2 : xs:float array -> ys:float array -> values:float array array -> grid2
(** [values.(i).(j)] is the sample at [(xs.(i), ys.(j))]; both axes strictly
    increasing with at least two points each. *)

val grid2_eval : grid2 -> float -> float -> float
(** Bilinear interpolation, clamped to the grid rectangle. *)

val grid2_dx : grid2 -> float -> float -> float
(** Partial derivative along the first axis (of the bilinear interpolant,
    i.e. piecewise constant in x between nodes). *)

val grid2_dy : grid2 -> float -> float -> float
(** Partial derivative along the second axis. *)
