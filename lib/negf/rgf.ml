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
   holds the Green's-function sweeps and the output diagonals, grown
   geometrically on demand; the arrays may be longer than the current
   chain, so every kernel below indexes strictly through [0, n).

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
    validated = None;
  }

let a1 ws = ws.wa1

let a2 ws = ws.wa2

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

(* Core spectra kernel writing into caller-provided scratch (each array
   at least length [n]); returns the coherent transmission.

   The left-connected sweep (gL_i, site 0 upward) and the right-connected
   sweep (gR_i, site n-1 downward) are independent chains of one complex
   inversion per site, so one loop runs both: step [s] advances gL at
   site [s] and gR at site [n-1-s], and the two division chains overlap
   in the pipeline.  The column propagations pair up the same way, with
   the spectral diagonals folded in.  Every element goes through the
   same floating-point operations, in the same order, as in two separate
   loops. *)
let spectra_core ~eta ~n ~glr ~gli ~grr ~gri ~a1 ~a2 chain e =
  let u = chain.onsite and h = chain.hopping in
  let slr = chain.sigma_l.Complex.re and sli = chain.sigma_l.Complex.im in
  let srr = chain.sigma_r.Complex.re and sri = chain.sigma_r.Complex.im in
  let last = n - 1 in
  (* Ends: gL_0 carries sigma_l, gR_{n-1} carries sigma_r. *)
  let zr = e -. u.(0) -. slr and zi = eta -. sli in
  let d = (zr *. zr) +. (zi *. zi) in
  glr.(0) <- zr /. d;
  gli.(0) <- -.zi /. d;
  let zr = e -. u.(last) -. srr and zi = eta -. sri in
  let d = (zr *. zr) +. (zi *. zi) in
  grr.(last) <- zr /. d;
  gri.(last) <- -.zi /. d;
  (* Step [s] of both sweeps; the far contact's self-energy enters at the
     last step (gL_{n-1} gets sigma_r, gR_0 gets sigma_l). *)
  for s = 1 to last do
    let i = s and j = last - s in
    let tl = h.(i - 1) *. h.(i - 1) and tr = h.(j) *. h.(j) in
    let zlr = e -. u.(i) -. (tl *. glr.(i - 1)) in
    let zli = eta -. (tl *. gli.(i - 1)) in
    let zrr = e -. u.(j) -. (tr *. grr.(j + 1)) in
    let zri = eta -. (tr *. gri.(j + 1)) in
    let zlr = if s = last then zlr -. srr else zlr in
    let zli = if s = last then zli -. sri else zli in
    let zrr = if s = last then zrr -. slr else zrr in
    let zri = if s = last then zri -. sli else zri in
    let dl = (zlr *. zlr) +. (zli *. zli) in
    let dr = (zrr *. zrr) +. (zri *. zri) in
    glr.(i) <- zlr /. dl;
    gli.(i) <- -.zli /. dl;
    grr.(j) <- zrr /. dr;
    gri.(j) <- -.zri /. dr
  done;
  (* First column of the full G, G_{i,0} = gR_i h_{i-1} G_{i-1,0} from the
     fully connected G_{0,0} = gR_0, and last column,
     G_{j,n-1} = gL_j h_j G_{j+1,n-1} from G_{n-1,n-1} = gL_{n-1}; each
     element feeds its spectral diagonal as soon as it is known. *)
  let gamma_l = gamma_of_sigma chain.sigma_l in
  let gamma_r = gamma_of_sigma chain.sigma_r in
  let c0r = ref grr.(0) and c0i = ref gri.(0) in
  let cnr = ref glr.(last) and cni = ref gli.(last) in
  a1.(0) <- gamma_l *. ((!c0r *. !c0r) +. (!c0i *. !c0i));
  a2.(last) <- gamma_r *. ((!cnr *. !cnr) +. (!cni *. !cni));
  for s = 1 to last do
    let i = s and j = last - s in
    let ar = grr.(i) *. h.(i - 1) and ai = gri.(i) *. h.(i - 1) in
    let br = glr.(j) *. h.(j) and bi = gli.(j) *. h.(j) in
    let pr = (ar *. !c0r) -. (ai *. !c0i) and pi = (ar *. !c0i) +. (ai *. !c0r) in
    let qr = (br *. !cnr) -. (bi *. !cni) and qi = (br *. !cni) +. (bi *. !cnr) in
    c0r := pr;
    c0i := pi;
    cnr := qr;
    cni := qi;
    a1.(i) <- gamma_l *. ((pr *. pr) +. (pi *. pi));
    a2.(j) <- gamma_r *. ((qr *. qr) +. (qi *. qi))
  done;
  (* After the last step the last-column element is G_{0,n-1}. *)
  let g0n2 = (!cnr *. !cnr) +. (!cni *. !cni) in
  gamma_l *. gamma_r *. g0n2

let spectra_into ?(eta = 1e-6) ws chain e =
  let n = check_cached ws chain in
  spectra_core ~eta ~n ~glr:ws.glr ~gli:ws.gli ~grr:ws.grr ~gri:ws.gri
    ~a1:ws.wa1 ~a2:ws.wa2 chain e

let spectra ?(eta = 1e-6) chain e =
  let n = check chain in
  let glr = Array.make n 0. and gli = Array.make n 0. in
  let grr = Array.make n 0. and gri = Array.make n 0. in
  let a1 = Array.make n 0. and a2 = Array.make n 0. in
  let t_coh = spectra_core ~eta ~n ~glr ~gli ~grr ~gri ~a1 ~a2 chain e in
  { t_coh; a1; a2 }

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
