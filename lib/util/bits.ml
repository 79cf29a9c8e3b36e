type t = { len : int; data : Bytes.t }
(* Bit [i] lives in byte [i / 8], mask [1 lsl (i mod 8)].  Unused tail bits
   of the last byte are kept zero so structural equality is meaningful. *)

let empty = { len = 0; data = Bytes.empty }

let length t = t.len

let bytes_for len = (len + 7) / 8

let get t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Bits.get: index %d out of range [0, %d)" i t.len);
  Char.code (Bytes.get t.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let make len =
  { len; data = Bytes.make (bytes_for len) '\000' }

let set_unsafe t i b =
  if b then begin
    let j = i lsr 3 in
    Bytes.set t.data j (Char.chr (Char.code (Bytes.get t.data j) lor (1 lsl (i land 7))))
  end

let init len f =
  let t = make len in
  for i = 0 to len - 1 do set_unsafe t i (f i) done;
  t

let equal a b = a.len = b.len && Bytes.equal a.data b.data

let compare a b =
  match Int.compare a.len b.len with
  | 0 -> Bytes.compare a.data b.data
  | c -> c

(* The byte-chunked kernels.  Integer fields are MSB-first while bits fill
   each byte from its low end, so moving a c-bit chunk (c <= 8) between an
   int and a byte reverses it: [rev c x] is the c-bit reversal of [x]. *)
let rev8 =
  String.init 256 (fun x ->
      let r = ref 0 in
      for k = 0 to 7 do
        if x land (1 lsl k) <> 0 then r := !r lor (1 lsl (7 - k))
      done;
      Char.chr !r)

let rev c x = Char.code (String.unsafe_get rev8 x) lsr (8 - c)

(* Integer field [pos, pos+width) read MSB-first straight off the byte
   buffer, one byte-aligned chunk at a time, without building the
   intermediate bitstring [sub] would.  No range check. *)
let fold_int data ~pos ~width =
  let v = ref 0 and pos = ref pos and left = ref width in
  while !left > 0 do
    let o = !pos land 7 in
    let c = min (8 - o) !left in
    let raw = (Char.code (Bytes.unsafe_get data (!pos lsr 3)) lsr o) land ((1 lsl c) - 1) in
    v := (!v lsl c) lor rev c raw;
    pos := !pos + c;
    left := !left - c
  done;
  !v

(* The inverse: writes the [width] low bits of [v] MSB-first at bit [pos],
   clearing whatever the chunk's bits held before, so a reused buffer
   needs no zero-fill.  No range check. *)
let write_int data ~pos ~width v =
  let pos = ref pos and left = ref width in
  while !left > 0 do
    let o = !pos land 7 and j = !pos lsr 3 in
    let c = min (8 - o) !left in
    left := !left - c;
    let mask = ((1 lsl c) - 1) lsl o in
    let chunk = rev c ((v lsr !left) land ((1 lsl c) - 1)) lsl o in
    Bytes.unsafe_set data j
      (Char.unsafe_chr ((Char.code (Bytes.unsafe_get data j) land lnot mask) lor chunk));
    pos := !pos + c
  done

(* Bits [spos, spos+len) of [src] to [dpos, dpos+len) of [dst], in int
   fields of up to 62 bits.  No range check. *)
let blit src ~spos dst ~dpos ~len =
  let k = ref 0 in
  while !k < len do
    let c = min 62 (len - !k) in
    write_int dst ~pos:(dpos + !k) ~width:c (fold_int src ~pos:(spos + !k) ~width:c);
    k := !k + c
  done

let concat ts =
  let out = make (List.fold_left (fun acc t -> acc + t.len) 0 ts) in
  let off = ref 0 in
  List.iter (fun t -> blit t.data ~spos:0 out.data ~dpos:!off ~len:t.len; off := !off + t.len) ts;
  out

let append a b = concat [ a; b ]

let of_bool b = init 1 (fun _ -> b)

let check_int what ~width v =
  if width < 0 || width > 62 then invalid_arg (what ^ ": width");
  if v < 0 || (width < 62 && v lsr width <> 0) then invalid_arg (what ^ ": value")

let of_int ~width v =
  check_int "Bits.of_int" ~width v;
  let t = make width in
  write_int t.data ~pos:0 ~width v;
  t

let to_int t =
  if t.len > 62 then invalid_arg "Bits.to_int: too long";
  fold_int t.data ~pos:0 ~width:t.len

(* No range check: reserved for call sites the refine-index pass of
   dipp-lint has proved in-bounds (an unverified call site is a lint
   finding).  Reads beyond [t.len] would return the zero tail bits of the
   last byte — silently wrong, never a crash — which is why the gate is
   static rather than a debug assert. *)
let unsafe_sub t ~pos ~len =
  let out = make len in
  blit t.data ~spos:pos out.data ~dpos:0 ~len;
  out

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg
      (Printf.sprintf "Bits.sub: slice [%d, %d+%d) out of range for length %d" pos pos len t.len);
  unsafe_sub t ~pos ~len

let random rng len = init len (fun _ -> Rng.bool rng)

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | _ -> invalid_arg "Bits.of_string")

let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_bytes t = Bytes.copy t.data

(* Re-zero the tail bits of a freshly copied buffer, so structural
   equality stays meaningful on bytes from disk or a reused writer. *)
let with_zero_tail ~len data =
  if len land 7 <> 0 then begin
    let j = Bytes.length data - 1 in
    Bytes.set data j (Char.chr (Char.code (Bytes.get data j) land ((1 lsl (len land 7)) - 1)))
  end;
  { len; data }

let of_bytes ~len data =
  if len < 0 || Bytes.length data <> bytes_for len then invalid_arg "Bits.of_bytes";
  with_zero_tail ~len (Bytes.copy data)

let read_int t ~pos ~width =
  if pos < 0 || width < 0 || width > 62 || pos + width > t.len then
    invalid_arg
      (Printf.sprintf "Bits.read_int: slice [%d, %d+%d) out of range for length %d" pos pos width
         t.len);
  fold_int t.data ~pos ~width

(* No range check: like unsafe_sub, reserved for call sites the
   refine-index pass has proved in-bounds — an unverified call site is a
   lint finding.  Out-of-range bit indices read whatever the backing
   buffer holds (including past its end: a crash), which is why the gate
   is static. *)
let unsafe_int t ~pos ~width = fold_int t.data ~pos ~width

(* The label encoder appends fields into one growable byte buffer with raw
   index arithmetic, so a label costs one buffer and one copy instead of a
   bitstring per field.  The layout is the one above: bit [i] in byte
   [i lsr 3], mask [1 lsl (i land 7)], integer fields MSB-first. *)
module Writer = struct
  type nonrec t = { mutable pos : int; mutable buf : Bytes.t }

  (* [capacity] is a preallocation floor: a reset-reused writer sized from
     a Bounds envelope never climbs the grow ladder, however the individual
     labels interleave. *)
  let create ?(capacity = 64) () =
    { pos = 0; buf = Bytes.make (bytes_for (max 1 capacity)) '\000' }

  let length w = w.pos

  (* Reset without re-zeroing the buffer: the kernels write both 0 and 1
     bits, so stale bits beyond the new cursor are re-written before they
     are ever read, and [contents] masks the last byte. *)
  let reset w = w.pos <- 0

  let grow w need =
    let cur = Bytes.length w.buf in
    if need > cur * 8 then begin
      let nbytes = ref (max 1 cur) in
      while need > !nbytes * 8 do
        nbytes := !nbytes * 2
      done;
      let buf = Bytes.make !nbytes '\000' in
      Bytes.blit w.buf 0 buf 0 cur;
      w.buf <- buf
    end

  let int w ~width v =
    check_int "Bits.Writer.int" ~width v;
    grow w (w.pos + width);
    write_int w.buf ~pos:w.pos ~width v;
    w.pos <- w.pos + width

  let bool w b = int w ~width:1 (Bool.to_int b)

  let bits w b =
    grow w (w.pos + b.len);
    blit b.data ~spos:0 w.buf ~dpos:w.pos ~len:b.len;
    w.pos <- w.pos + b.len

  let contents w = with_zero_tail ~len:w.pos (Bytes.sub w.buf 0 (bytes_for w.pos))
end

module Reader = struct
  exception Underflow

  type nonrec t = { src : t; mutable pos : int }

  let of_bits src = { src; pos = 0 }
  let remaining r = r.src.len - r.pos

  let bits r ~len =
    if len > remaining r then raise Underflow;
    let b = sub r.src ~pos:r.pos ~len in
    r.pos <- r.pos + len;
    b

  let int r ~width =
    if width > remaining r then raise Underflow;
    let v = read_int r.src ~pos:r.pos ~width in
    r.pos <- r.pos + width;
    v

  let bool r = int r ~width:1 = 1
end
