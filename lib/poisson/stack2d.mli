(** 2D finite-volume Poisson solver for the double-gate GNRFET stack.

    Solves [div (eps grad u) = rho] on the rectangle spanned by the node
    coordinates [xs] (transport direction) × [zs] (vertical), where [u] is
    the local mid-gap energy in volts (u = -V, see DESIGN.md).  The top and
    bottom rows are the gate electrodes (Dirichlet).  The source/drain
    contacts on the left/right sides support two styles:

    - [Plane]: the whole side is a metal plane (Dirichlet on the full
      column) — a thick wrap-around contact;
    - [Point]: the metal is end-bonded to the channel, so only the node on
      the channel sheet row is pinned and the rest of the side column is a
      zero-flux (Neumann) boundary.  This lets the gate field thin the
      Schottky junction, which is how the fabricated devices of the paper
      switch.

    The mobile channel charge enters as a sheet on one interior z-row.
    The system matrix depends only on the grid, permittivity and contact
    style, so it is factorized once (banded LU) and reused for every
    right-hand side of the self-consistent loop. *)

type t

type contact_style = Plane | Point

type bc = { left : float; right : float; bottom : float; top : float }
(** Dirichlet values of [u] (volts) on the gates and contacts. *)

val make :
  ?contact_style:contact_style ->
  xs:float array ->
  zs:float array ->
  eps_r:(float -> float -> float) ->
  sheet_row:int ->
  unit ->
  t
(** [make ~xs ~zs ~eps_r ~sheet_row ()]: strictly increasing node
    coordinates (m); [eps_r x z] the relative permittivity at a point
    (sampled at cell faces); [sheet_row] the z-index (interior) of the row
    carrying the channel sheet charge.  Default style is [Point]. *)

val nx : t -> int

val nz : t -> int

val solve : t -> bc:bc -> sheet_charge:float array -> float array array
(** [solve t ~bc ~sheet_charge] where [sheet_charge.(i)] is the sheet
    density (C/m²) under interior x-node [i+1] (length [nx-2]); returns the
    full node potential [u.(i).(j)] in volts including boundary values.
    Instrumented: bumps [stack2d.solves] and the [stack2d.solve] timer in
    {!Obs.global} (a direct factorized solve, so there is no iteration
    metric; see docs/OBS.md). *)

val probe : t -> bc:bc -> sheet_charge:float -> float array
(** [probe t ~bc ~sheet_charge:s] answers [nx - 2] one-hot solves at once:
    element [i] is the sheet-row potential at interior x node [i+1] when
    that node alone carries the sheet density [s], i.e.
    [(plane_potential t (solve t ~bc ~sheet_charge:c)).(i)] with
    [c.(i) = s] and zeros elsewhere, bit for bit.  It shares the
    zero-charge forward sweep across the probes and re-solves only the
    rows from each probed unknown on.  Bumps [stack2d.solves] by
    [nx - 2] and records the whole call as one [stack2d.solve] timer
    sample. *)

val plane_potential : t -> float array array -> float array
(** Potential along the sheet row at the interior x nodes (length
    [nx - 2]): the channel mid-gap profile fed back to the NEGF solver. *)
