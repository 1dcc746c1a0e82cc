type t = {
  name : string;
  id : vgs:float -> vds:float -> float;
  cgs : vgs:float -> vds:float -> float;
  cgd : vgs:float -> vds:float -> float;
}

let parallel name models =
  if models = [] then invalid_arg "Fet_model.parallel: empty list";
  let sum f ~vgs ~vds =
    List.fold_left (fun acc m -> acc +. f m ~vgs ~vds) 0. models
  in
  {
    name;
    id = (fun ~vgs ~vds -> sum (fun m -> m.id) ~vgs ~vds);
    cgs = (fun ~vgs ~vds -> sum (fun m -> m.cgs) ~vgs ~vds);
    cgd = (fun ~vgs ~vds -> sum (fun m -> m.cgd) ~vgs ~vds);
  }
