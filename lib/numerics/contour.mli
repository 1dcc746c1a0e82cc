(** Iso-contour extraction from gridded 2D scalar fields (marching squares).

    Used for the EDP / frequency / SNM contour analysis of Section 3.1 of the
    paper (Fig 3(b)). *)

type point = { x : float; y : float }

type polyline = point list
(** Ordered chain of points along one connected contour piece. *)

val extract :
  xs:float array -> ys:float array -> values:float array array -> level:float -> polyline list
(** [extract ~xs ~ys ~values ~level] returns the iso-lines of the sampled
    field [values.(i).(j)] at [(xs.(i), ys.(j))].  Segments from each grid
    cell are chained into polylines; open contours terminate at the grid
    boundary. *)
