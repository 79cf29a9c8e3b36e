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

let append a b = init (a.len + b.len) (fun i -> if i < a.len then get a i else get b (i - a.len))

let concat ts =
  let total = List.fold_left (fun acc t -> acc + t.len) 0 ts in
  let out = make total in
  let off = ref 0 in
  List.iter
    (fun t ->
      for i = 0 to t.len - 1 do set_unsafe out (!off + i) (get t i) done;
      off := !off + t.len)
    ts;
  out

let of_bool b = init 1 (fun _ -> b)

let of_int ~width v =
  if width < 0 || width > 62 then invalid_arg "Bits.of_int: width";
  if v < 0 || (width < 62 && v lsr width <> 0) then invalid_arg "Bits.of_int: value";
  init width (fun i -> (v lsr (width - 1 - i)) land 1 = 1)

let to_int t =
  if t.len > 62 then invalid_arg "Bits.to_int: too long";
  let v = ref 0 in
  for i = 0 to t.len - 1 do
    v := (!v lsl 1) lor (if get t i then 1 else 0)
  done;
  !v

(* No range check: reserved for call sites the refine-index pass of
   dipp-lint has proved in-bounds (an unverified call site is a lint
   finding).  Reads beyond [t.len] would return the zero tail bits of the
   last byte — silently wrong, never a crash — which is why the gate is
   static rather than a debug assert. *)
let unsafe_sub t ~pos ~len =
  init len (fun i ->
      Char.code (Bytes.get t.data ((pos + i) lsr 3)) land (1 lsl ((pos + i) land 7)) <> 0)

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

(* Integer field [pos, pos+width) read MSB-first straight off the byte
   buffer, without building the intermediate bitstring [sub] would. *)
let fold_int data ~pos ~width =
  let v = ref 0 in
  for k = 0 to width - 1 do
    let i = pos + k in
    v := (!v lsl 1) lor ((Char.code (Bytes.unsafe_get data (i lsr 3)) lsr (i land 7)) land 1)
  done;
  !v

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

  (* Reset without re-zeroing the buffer: set_bit below writes both 0 and
     1, so stale bits beyond the new cursor are re-written before they are
     ever read, and [contents] masks the last byte. *)
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

  let set_bit w i b =
    let j = i lsr 3 in
    let mask = 1 lsl (i land 7) in
    let c = Char.code (Bytes.unsafe_get w.buf j) in
    Bytes.unsafe_set w.buf j (Char.unsafe_chr (if b then c lor mask else c land lnot mask))

  let bool w b =
    grow w (w.pos + 1);
    set_bit w w.pos b;
    w.pos <- w.pos + 1

  let int w ~width v =
    if width < 0 || width > 62 then invalid_arg "Bits.Writer.int: width";
    if v < 0 || (width < 62 && v lsr width <> 0) then invalid_arg "Bits.Writer.int: value";
    grow w (w.pos + width);
    for k = 0 to width - 1 do
      set_bit w (w.pos + k) ((v lsr (width - 1 - k)) land 1 = 1)
    done;
    w.pos <- w.pos + width

  let bits w b =
    grow w (w.pos + b.len);
    for k = 0 to b.len - 1 do
      set_bit w (w.pos + k)
        (Char.code (Bytes.unsafe_get b.data (k lsr 3)) land (1 lsl (k land 7)) <> 0)
    done;
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
