let occupation ~mu ~kt e =
  if kt <= 0. then (if e < mu then 1. else if e > mu then 0. else 0.5)
  else begin
    let x = (e -. mu) /. kt in
    if x > 40. then exp (-.x)
    else if x < -40. then 1.
    else 1. /. (1. +. exp x)
  end

let window ~mu1 ~mu2 ~kt e = occupation ~mu:mu1 ~kt e -. occupation ~mu:mu2 ~kt e
