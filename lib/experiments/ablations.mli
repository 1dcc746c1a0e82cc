(** Ablation studies of the design choices DESIGN.md calls out: mode-space
    depth, energy-grid resolution, SCF acceleration, contact geometry,
    temperature and bias-table density.  Each returns its measurements;
    [print_all] runs them all and prints the comparisons
    ([gnrfet_cli ablations]). *)

type mode_count_result = {
  n_modes : int;
  ion : float;  (** A at VG = 0.75, VD = 0.5 *)
  ioff : float;  (** A at the ambipolar minimum *)
}

val mode_count : unit -> mode_count_result list
(** Effect of keeping 1, 2 or 3 subbands in the mode-space reduction. *)

type grid_result = {
  energy_step : float;  (** eV *)
  ion : float;
  relative_error : float;  (** vs the finest grid in the sweep *)
}

val energy_grid : unit -> grid_result list
(** Ion at VG = 0.6 V, VD = 0.5 V for energy steps of 8, 4, 2 and 1 meV. *)

type mixing_result = {
  scheme : string;
  iterations : int;
  converged : bool;
}

val mixing : unit -> mixing_result list
(** Anderson acceleration vs plain under-relaxation (factors 0.3 and 0.1)
    at the strongly-inverted bias point VG = 0.7 V, VD = 0.5 V. *)

type contact_result = {
  style : string;
  ion : float;
  ion_over_ioff : float;
}

val contact_style : unit -> contact_result list
(** End-bonded (Point) vs wrap-around (Plane) contact electrostatics. *)

type table_density_result = {
  n_vg : int;
  snm : float;  (** inverter SNM at the B operating point *)
  delay : float;  (** s *)
}

val table_density : unit -> table_density_result list
(** How the bias-table VG density (14, 27 and 53 points) changes
    circuit-level answers (bilinear interpolation smears transconductance
    on coarse grids). *)

type temperature_result = {
  temperature : float;  (** K *)
  ion : float;
  ioff : float;
  on_off : float;
}

val temperature : unit -> temperature_result list
(** Thermionic sensitivity at 250, 300, 350 and 400 K: the ambipolar
    leakage floor grows exponentially with temperature while the
    on-current barely moves. *)

val print_all : Format.formatter -> unit
(** Run every ablation and print the comparisons. *)
