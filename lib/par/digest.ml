(* 31/131 polynomial rolling checksum folded to 30 bits, so values
   embed exactly in JSON floats.  Not cryptographic; it only needs to
   make unequal reports compare unequal with high probability. *)

let mask30 = 0x3FFFFFFF

let fold acc s =
  let h = ref acc in
  String.iter (fun c -> h := (((!h * 131) + Char.code c) land mask30)) s;
  !h

let string s = fold 17 s

(* A length marker between elements keeps [strings] sensitive to element
   boundaries, not just to the concatenation. *)
let strings ss = List.fold_left (fun acc s -> fold ((acc * 31) + String.length s) s) 17 ss
