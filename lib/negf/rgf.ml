type chain = {
  onsite : float array;
  hopping : float array;
  sigma_l : Complex.t;
  sigma_r : Complex.t;
}

type spectra = { t_coh : float; a1 : float array; a2 : float array }

let gamma_of_sigma s = -2. *. s.Complex.im

let check chain =
  let n = Array.length chain.onsite in
  if n < 2 then invalid_arg "Rgf: chain needs at least two sites";
  if Array.length chain.hopping <> n - 1 then
    invalid_arg "Rgf: hopping length must be n-1";
  n

(* All complex arithmetic below is hand-rolled on float pairs: this is the
   innermost loop of every device simulation. *)

(* 1/(zr + i zi) *)
let inv_re zr zi = let d = (zr *. zr) +. (zi *. zi) in zr /. d

let inv_im zr zi = let d = (zr *. zr) +. (zi *. zi) in -.zi /. d

(* Preallocated per-worker scratch: [spectra] allocates six length-n
   arrays per energy point, which dominates the allocation rate of an
   SCF sweep (thousands of energies per charge evaluation).  A workspace
   holds one lane's Green's-function sweeps, its output diagonals and
   its transmission, grown geometrically on demand; the arrays may be
   longer than the current chain, so every kernel below indexes strictly
   through [0, n).

   The workspace also caches the last chain vetted by [check] (physical
   equality): per-energy calls on the same chain — the common case, an
   SCF iteration walks a whole energy grid with one chain — skip the
   redundant length re-validation while malformed chains still fail with
   the same [Invalid_argument] on first contact. *)
type workspace = {
  mutable glr : float array;
  mutable gli : float array;
  mutable grr : float array;
  mutable gri : float array;
  mutable wa1 : float array;
  mutable wa2 : float array;
  wt : float array;  (** [| t_coh |]: a float array, so writes do not box *)
  mutable validated : chain option;
}

let workspace ?(hint = 0) () =
  let mk () = Array.make (max hint 0) 0. in
  {
    glr = mk ();
    gli = mk ();
    grr = mk ();
    gri = mk ();
    wa1 = mk ();
    wa2 = mk ();
    wt = [| 0. |];
    validated = None;
  }

let a1 ws = ws.wa1

let a2 ws = ws.wa2

let t_coh ws = ws.wt.(0)

let ensure_capacity ws n =
  if Array.length ws.glr < n then begin
    let cap = max n (2 * Array.length ws.glr) in
    ws.glr <- Array.make cap 0.;
    ws.gli <- Array.make cap 0.;
    ws.grr <- Array.make cap 0.;
    ws.gri <- Array.make cap 0.;
    ws.wa1 <- Array.make cap 0.;
    ws.wa2 <- Array.make cap 0.
  end

let check_cached ws chain =
  match ws.validated with
  | Some c when c == chain -> Array.length chain.onsite
  | Some _ | None ->
    let n = check chain in
    ensure_capacity ws n;
    ws.validated <- Some chain;
    n

(* Unchecked float-array indexing for [spectra_core] only: every index it
   uses lies in [0, n), and [check] / [check_cached] have vetted each
   chain's lengths and grown each workspace to at least n before it
   runs.  The bounds checks cost four instructions per access, over a
   third of the loop; without them the kernel runs about 1.6x faster
   (n = 70). *)
external ( .!() ) : float array -> int -> float = "%array_unsafe_get"

external ( .!()<- ) : float array -> int -> float -> unit = "%array_unsafe_set"

(* Core spectra kernel: two lanes, (chain [cx], energy [ex]) into
   workspace [wx] and ([cy], [ey]) into [wy], both chains [n] sites long.

   Within a lane, the left-connected sweep (gL_i, site 0 upward) and the
   right-connected sweep (gR_i, site n-1 downward) are independent chains
   of one complex inversion per site, so one loop runs both: step [s]
   advances gL at site [s] and gR at site [n-1-s].  The second lane adds
   two more independent division chains to the same loop, so four
   overlap in the pipeline.  The column propagations pair up the same
   way, with the spectral diagonals folded in.  Each lane's elements go
   through the same floating-point operations, in the same order, as in
   separate one-energy loops, and with two workspaces neither lane reads
   the other's arrays.  With [wx == wy] the lanes must be the same
   input: both then write the same values (lane y last), which is how
   the one-energy entry points run. *)
let spectra_core ~eta ~n wx cx ex wy cy ey =
  let ux = cx.onsite and hx = cx.hopping in
  let uy = cy.onsite and hy = cy.hopping in
  let glrx = wx.glr and glix = wx.gli and grrx = wx.grr and grix = wx.gri in
  let glry = wy.glr and gliy = wy.gli and grry = wy.grr and griy = wy.gri in
  let slrx = cx.sigma_l.Complex.re and slix = cx.sigma_l.Complex.im in
  let srrx = cx.sigma_r.Complex.re and srix = cx.sigma_r.Complex.im in
  let slry = cy.sigma_l.Complex.re and sliy = cy.sigma_l.Complex.im in
  let srry = cy.sigma_r.Complex.re and sriy = cy.sigma_r.Complex.im in
  let last = n - 1 in
  (* Ends: gL_0 carries sigma_l, gR_{n-1} carries sigma_r. *)
  let zr = ex -. ux.!(0) -. slrx and zi = eta -. slix in
  let d = (zr *. zr) +. (zi *. zi) in
  glrx.!(0) <- zr /. d;
  glix.!(0) <- -.zi /. d;
  let zr = ex -. ux.!(last) -. srrx and zi = eta -. srix in
  let d = (zr *. zr) +. (zi *. zi) in
  grrx.!(last) <- zr /. d;
  grix.!(last) <- -.zi /. d;
  let zr = ey -. uy.!(0) -. slry and zi = eta -. sliy in
  let d = (zr *. zr) +. (zi *. zi) in
  glry.!(0) <- zr /. d;
  gliy.!(0) <- -.zi /. d;
  let zr = ey -. uy.!(last) -. srry and zi = eta -. sriy in
  let d = (zr *. zr) +. (zi *. zi) in
  grry.!(last) <- zr /. d;
  griy.!(last) <- -.zi /. d;
  (* Step [s] of all four sweeps; the far contact's self-energy enters at
     the last step (gL_{n-1} gets sigma_r, gR_0 gets sigma_l). *)
  for s = 1 to last do
    let i = s and j = last - s in
    let tl = hx.!(i - 1) *. hx.!(i - 1) and tr = hx.!(j) *. hx.!(j) in
    let zlr = ex -. ux.!(i) -. (tl *. glrx.!(i - 1)) in
    let zli = eta -. (tl *. glix.!(i - 1)) in
    let zrr = ex -. ux.!(j) -. (tr *. grrx.!(j + 1)) in
    let zri = eta -. (tr *. grix.!(j + 1)) in
    let zlr = if s = last then zlr -. srrx else zlr in
    let zli = if s = last then zli -. srix else zli in
    let zrr = if s = last then zrr -. slrx else zrr in
    let zri = if s = last then zri -. slix else zri in
    let tl = hy.!(i - 1) *. hy.!(i - 1) and tr = hy.!(j) *. hy.!(j) in
    let ylr = ey -. uy.!(i) -. (tl *. glry.!(i - 1)) in
    let yli = eta -. (tl *. gliy.!(i - 1)) in
    let yrr = ey -. uy.!(j) -. (tr *. grry.!(j + 1)) in
    let yri = eta -. (tr *. griy.!(j + 1)) in
    let ylr = if s = last then ylr -. srry else ylr in
    let yli = if s = last then yli -. sriy else yli in
    let yrr = if s = last then yrr -. slry else yrr in
    let yri = if s = last then yri -. sliy else yri in
    let dl = (zlr *. zlr) +. (zli *. zli) in
    let dr = (zrr *. zrr) +. (zri *. zri) in
    let el = (ylr *. ylr) +. (yli *. yli) in
    let er = (yrr *. yrr) +. (yri *. yri) in
    glrx.!(i) <- zlr /. dl;
    glix.!(i) <- -.zli /. dl;
    grrx.!(j) <- zrr /. dr;
    grix.!(j) <- -.zri /. dr;
    glry.!(i) <- ylr /. el;
    gliy.!(i) <- -.yli /. el;
    grry.!(j) <- yrr /. er;
    griy.!(j) <- -.yri /. er
  done;
  (* First column of the full G, G_{i,0} = gR_i h_{i-1} G_{i-1,0} from the
     fully connected G_{0,0} = gR_0, and last column,
     G_{j,n-1} = gL_j h_j G_{j+1,n-1} from G_{n-1,n-1} = gL_{n-1}; each
     element feeds its spectral diagonal as soon as it is known. *)
  let a1x = wx.wa1 and a2x = wx.wa2 and a1y = wy.wa1 and a2y = wy.wa2 in
  let gamma_lx = gamma_of_sigma cx.sigma_l and gamma_rx = gamma_of_sigma cx.sigma_r in
  let gamma_ly = gamma_of_sigma cy.sigma_l and gamma_ry = gamma_of_sigma cy.sigma_r in
  let c0rx = ref grrx.!(0) and c0ix = ref grix.!(0) in
  let cnrx = ref glrx.!(last) and cnix = ref glix.!(last) in
  let c0ry = ref grry.!(0) and c0iy = ref griy.!(0) in
  let cnry = ref glry.!(last) and cniy = ref gliy.!(last) in
  a1x.!(0) <- gamma_lx *. ((!c0rx *. !c0rx) +. (!c0ix *. !c0ix));
  a2x.!(last) <- gamma_rx *. ((!cnrx *. !cnrx) +. (!cnix *. !cnix));
  a1y.!(0) <- gamma_ly *. ((!c0ry *. !c0ry) +. (!c0iy *. !c0iy));
  a2y.!(last) <- gamma_ry *. ((!cnry *. !cnry) +. (!cniy *. !cniy));
  for s = 1 to last do
    let i = s and j = last - s in
    let ar = grrx.!(i) *. hx.!(i - 1) and ai = grix.!(i) *. hx.!(i - 1) in
    let br = glrx.!(j) *. hx.!(j) and bi = glix.!(j) *. hx.!(j) in
    let pr = (ar *. !c0rx) -. (ai *. !c0ix) and pi = (ar *. !c0ix) +. (ai *. !c0rx) in
    let qr = (br *. !cnrx) -. (bi *. !cnix) and qi = (br *. !cnix) +. (bi *. !cnrx) in
    c0rx := pr;
    c0ix := pi;
    cnrx := qr;
    cnix := qi;
    a1x.!(i) <- gamma_lx *. ((pr *. pr) +. (pi *. pi));
    a2x.!(j) <- gamma_rx *. ((qr *. qr) +. (qi *. qi));
    let ar = grry.!(i) *. hy.!(i - 1) and ai = griy.!(i) *. hy.!(i - 1) in
    let br = glry.!(j) *. hy.!(j) and bi = gliy.!(j) *. hy.!(j) in
    let pr = (ar *. !c0ry) -. (ai *. !c0iy) and pi = (ar *. !c0iy) +. (ai *. !c0ry) in
    let qr = (br *. !cnry) -. (bi *. !cniy) and qi = (br *. !cniy) +. (bi *. !cnry) in
    c0ry := pr;
    c0iy := pi;
    cnry := qr;
    cniy := qi;
    a1y.!(i) <- gamma_ly *. ((pr *. pr) +. (pi *. pi));
    a2y.!(j) <- gamma_ry *. ((qr *. qr) +. (qi *. qi))
  done;
  (* After the last step the last-column element is G_{0,n-1}. *)
  wx.wt.(0) <- gamma_lx *. gamma_rx *. ((!cnrx *. !cnrx) +. (!cnix *. !cnix));
  wy.wt.(0) <- gamma_ly *. gamma_ry *. ((!cnry *. !cnry) +. (!cniy *. !cniy))

let spectra_into ?(eta = 1e-6) ws chain e =
  let n = check_cached ws chain in
  spectra_core ~eta ~n ws chain e ws chain e;
  ws.wt.(0)

let spectra_pair_into ?(eta = 1e-6) wx cx ex wy cy ey =
  if wx == wy then invalid_arg "Rgf.spectra_pair_into: lanes need two workspaces";
  let n = check_cached wx cx in
  if check_cached wy cy <> n then
    invalid_arg "Rgf.spectra_pair_into: lane chains differ in length";
  spectra_core ~eta ~n wx cx ex wy cy ey

let spectra ?(eta = 1e-6) chain e =
  let n = check chain in
  let ws = workspace ~hint:n () in
  spectra_core ~eta ~n ws chain e ws chain e;
  { t_coh = ws.wt.(0); a1 = ws.wa1; a2 = ws.wa2 }

(* Single left sweep, propagating the (0, i) matrix element product:
   allocation-free already, shared by both transmission entry points. *)
let transmission_core ~eta ~n chain e =
  let u = chain.onsite and h = chain.hopping in
  let slr = chain.sigma_l.Complex.re and sli = chain.sigma_l.Complex.im in
  let srr = chain.sigma_r.Complex.re and sri = chain.sigma_r.Complex.im in
  let zr0 = e -. u.(0) -. slr and zi0 = eta -. sli in
  let glr = ref (inv_re zr0 zi0) and gli = ref (inv_im zr0 zi0) in
  (* pr + i pi accumulates prod_{j<i} (gL_j h_j). *)
  let pr = ref !glr and pi = ref !gli in
  for i = 1 to n - 1 do
    let t2 = h.(i - 1) *. h.(i - 1) in
    let zr = e -. u.(i) -. (t2 *. !glr) in
    let zi = eta -. (t2 *. !gli) in
    let zr = if i = n - 1 then zr -. srr else zr in
    let zi = if i = n - 1 then zi -. sri else zi in
    glr := inv_re zr zi;
    gli := inv_im zr zi;
    (* Multiply the running product by h_{i-1}, then (at the end) by the
       fully-connected G_nn; mid-chain we fold in gL_i progressively:
       G_{0,n-1} = (prod_{i<n-1} gL_i h_i) * G_{n-1,n-1}; our loop keeps
       prod gL h gL h ... by multiplying h then gL each step. *)
    let qr = !pr *. h.(i - 1) in
    let qi = !pi *. h.(i - 1) in
    pr := (qr *. !glr) -. (qi *. !gli);
    pi := (qr *. !gli) +. (qi *. !glr)
  done;
  let gamma_l = gamma_of_sigma chain.sigma_l in
  let gamma_r = gamma_of_sigma chain.sigma_r in
  gamma_l *. gamma_r *. ((!pr *. !pr) +. (!pi *. !pi))

let transmission ?(eta = 1e-6) chain e =
  let n = check chain in
  transmission_core ~eta ~n chain e

let transmission_into ?(eta = 1e-6) ws chain e =
  let n = check_cached ws chain in
  transmission_core ~eta ~n chain e
