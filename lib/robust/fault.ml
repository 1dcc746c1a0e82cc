type mode =
  | Always
  | Prob of float
  | Hit_range of int * int
  | Every of int

type rule = { pattern : string; mode : mode }

type campaign = { spec : string; seed : int; rules : rule list }

type site = {
  s_name : string;
  s_hits : int Atomic.t;
  s_injected : int Atomic.t;
  s_counter : Obs.Counter.t;  (** robust.fault.<name>, in Obs.global *)
  mutable s_rule : rule option;  (** resolved against the armed campaign *)
}

(* The whole disabled-path cost is this one load+branch. *)
let armed = ref false

let campaign : campaign option ref = ref None

let sites : (string, site) Hashtbl.t = Hashtbl.create 16

let registry_mutex = Mutex.create ()

(* splitmix64: the decision for hit [k] of a site mixes the campaign
   seed, a stable hash of the site name and [k] — deterministic and
   independent across sites. *)
let splitmix64 x =
  let open Int64 in
  let x = add x 0x9E3779B97F4A7C15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

let unit_float h =
  (* Top 53 bits -> [0,1). *)
  Int64.to_float (Int64.shift_right_logical h 11) *. (1. /. 9007199254740992.)

let decision ~seed ~name ~hit =
  let h = splitmix64 (Int64.of_int (Hashtbl.hash name)) in
  let h = splitmix64 (Int64.logxor h (Int64.of_int seed)) in
  unit_float (splitmix64 (Int64.logxor h (Int64.of_int hit)))

let pattern_matches pat name =
  if String.length pat > 0 && pat.[String.length pat - 1] = '*' then
    let prefix = String.sub pat 0 (String.length pat - 1) in
    String.length name >= String.length prefix
    && String.sub name 0 (String.length prefix) = prefix
  else String.equal pat name

let rule_for name = function
  | None -> None
  | Some c -> List.find_opt (fun r -> pattern_matches r.pattern name) c.rules

let site name =
  Mutex.protect registry_mutex @@ fun () ->
  match Hashtbl.find_opt sites name with
  | Some s -> s
  | None ->
    let s =
      {
        s_name = name;
        s_hits = Atomic.make 0;
        s_injected = Atomic.make 0;
        s_counter = Obs.Counter.make ("robust.fault." ^ name);
        s_rule = rule_for name !campaign;
      }
    in
    Hashtbl.add sites name s;
    s

let site_name s = s.s_name

let active () = !armed

let hits s = Atomic.get s.s_hits

let injected s = Atomic.get s.s_injected

let site_armed name = !armed && rule_for name !campaign <> None

let current_spec () =
  if !armed then Option.map (fun c -> c.spec) !campaign else None

let should_fail s =
  if not !armed then false
  else
    match s.s_rule with
    | None -> false
    | Some r ->
      let hit = 1 + Atomic.fetch_and_add s.s_hits 1 in
      let seed = match !campaign with Some c -> c.seed | None -> 1 in
      let fire =
        match r.mode with
        | Always -> true
        | Prob p -> decision ~seed ~name:s.s_name ~hit < p
        | Hit_range (a, b) -> hit >= a && hit <= b
        | Every k -> hit mod k = 0
      in
      if fire then begin
        Atomic.incr s.s_injected;
        Obs.Counter.incr s.s_counter
      end;
      fire

let fail s =
  if should_fail s then
    Robust_error.raise_
      (Robust_error.Injected_fault { site = s.s_name; hit = hits s })

(* --- spec parsing ------------------------------------------------------ *)

let bad spec fragment what =
  invalid_arg
    (Printf.sprintf "Fault.arm: %s in %S (entry %S); grammar: \
                     site[@prob|#hit[-hit]|%%every],...[:seed]"
       what spec fragment)

let parse_entry spec entry =
  let split_at i =
    (String.sub entry 0 i, String.sub entry (i + 1) (String.length entry - i - 1))
  in
  let mode_pos =
    let best = ref (-1) in
    String.iteri
      (fun i c -> if !best < 0 && (c = '@' || c = '#' || c = '%') then best := i)
      entry;
    !best
  in
  if mode_pos < 0 then
    if entry = "" then bad spec entry "empty entry"
    else { pattern = entry; mode = Always }
  else begin
    let pattern, rest = split_at mode_pos in
    if pattern = "" then bad spec entry "missing site name";
    let mode =
      (* mode_pos was found by scanning for exactly these three chars. *)
      if entry.[mode_pos] = '@' then begin
        match float_of_string_opt rest with
        | Some p when p >= 0. && p <= 1. -> Prob p
        | Some _ | None -> bad spec entry "probability must be a float in [0,1]"
      end
      else if entry.[mode_pos] = '#' then begin
        match String.index_opt rest '-' with
        | None -> begin
          match int_of_string_opt rest with
          | Some n when n >= 1 -> Hit_range (n, n)
          | Some _ | None -> bad spec entry "hit index must be an int >= 1"
        end
        | Some d ->
          let a = String.sub rest 0 d
          and b = String.sub rest (d + 1) (String.length rest - d - 1) in
          (match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b when a >= 1 && b >= a -> Hit_range (a, b)
          | _ -> bad spec entry "hit range must be ints with 1 <= a <= b")
      end
      else begin
        match int_of_string_opt rest with
        | Some k when k >= 1 -> Every k
        | Some _ | None -> bad spec entry "period must be an int >= 1"
      end
    in
    { pattern; mode }
  end

let parse spec =
  (* The seed suffix is the part after the last ':' when it parses as an
     int; site names themselves never contain ':'. *)
  let body, seed =
    match String.rindex_opt spec ':' with
    | None -> (spec, 1)
    | Some i -> begin
      let tail = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt tail with
      | Some s -> (String.sub spec 0 i, s)
      | None -> bad spec tail "seed must be an int"
    end
  in
  let entries = String.split_on_char ',' body |> List.map String.trim in
  if entries = [] || List.mem "" entries then bad spec body "empty entry";
  { spec; seed; rules = List.map (parse_entry spec) entries }

let rebind_sites () =
  Hashtbl.iter
    (fun _ s ->
      Atomic.set s.s_hits 0;
      Atomic.set s.s_injected 0;
      s.s_rule <- rule_for s.s_name !campaign)
    sites

let arm spec =
  let c = parse spec in
  Mutex.protect registry_mutex (fun () ->
      campaign := Some c;
      rebind_sites ();
      armed := true)

let disarm () =
  Mutex.protect registry_mutex (fun () ->
      armed := false;
      campaign := None;
      rebind_sites ())

let with_spec spec f =
  let previous = current_spec () in
  arm spec;
  Fun.protect
    ~finally:(fun () ->
      match previous with Some s -> arm s | None -> disarm ())
    f

(* Env gating: a campaign in GNRFET_FAULT arms the whole process at
   startup (the CI fault-matrix legs).  A malformed spec is a hard,
   immediate error — a fault campaign that silently fails to arm would
   green-light recovery paths that were never exercised. *)
let () =
  match Sys.getenv_opt "GNRFET_FAULT" with
  | None | Some "" -> ()
  | Some spec -> begin
    match arm spec with
    | () -> ()
    | exception Invalid_argument msg ->
      prerr_endline msg;
      exit 2
  end
