(* Unit + property tests for the bit/field substrate. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- Bits ---------------------------------------------------------- *)

let test_bits_roundtrip () =
  for width = 1 to 20 do
    let v = (1 lsl width) - 1 in
    Alcotest.(check int) "max value" v Bits.(to_int (of_int ~width v));
    Alcotest.(check int) "zero" 0 Bits.(to_int (of_int ~width 0))
  done

let test_bits_get () =
  let b = Bits.of_string "10110" in
  Alcotest.(check bool) "bit 0" true (Bits.get b 0);
  Alcotest.(check bool) "bit 1" false (Bits.get b 1);
  Alcotest.(check bool) "bit 2" true (Bits.get b 2);
  Alcotest.(check int) "length" 5 (Bits.length b)

let test_bits_append () =
  let a = Bits.of_string "101" and b = Bits.of_string "0011" in
  Alcotest.(check string) "append" "1010011" (Bits.to_string (Bits.append a b));
  Alcotest.(check string) "concat" "1010011101" (Bits.to_string (Bits.concat [ a; b; a ]))

let test_bits_sub () =
  let b = Bits.of_string "110010111" in
  Alcotest.(check string) "sub" "0010" (Bits.to_string (Bits.sub b ~pos:2 ~len:4))

let test_bits_writer_reader () =
  let w = Bits.Writer.create () in
  Bits.Writer.int w ~width:7 93;
  Bits.Writer.bool w true;
  Bits.Writer.int w ~width:3 5;
  let r = Bits.Reader.of_bits (Bits.Writer.contents w) in
  Alcotest.(check int) "int field" 93 (Bits.Reader.int r ~width:7);
  Alcotest.(check bool) "bool field" true (Bits.Reader.bool r);
  Alcotest.(check int) "second int" 5 (Bits.Reader.int r ~width:3);
  Alcotest.(check int) "drained" 0 (Bits.Reader.remaining r)

let test_bits_reader_underflow () =
  let r = Bits.Reader.of_bits (Bits.of_string "10") in
  Alcotest.check_raises "underflow" Bits.Reader.Underflow (fun () ->
      ignore (Bits.Reader.int r ~width:3))

let test_bits_range_errors () =
  (* the checked accessors name the offending index/slice and the length *)
  let b = Bits.of_string "10110" in
  Alcotest.check_raises "get past the end"
    (Invalid_argument "Bits.get: index 5 out of range [0, 5)")
    (fun () -> ignore (Bits.get b 5));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Bits.get: index -1 out of range [0, 5)")
    (fun () -> ignore (Bits.get b (-1)));
  Alcotest.check_raises "slice past the end"
    (Invalid_argument "Bits.sub: slice [3, 3+4) out of range for length 5")
    (fun () -> ignore (Bits.sub b ~pos:3 ~len:4));
  Alcotest.check_raises "negative slice position"
    (Invalid_argument "Bits.sub: slice [-1, -1+2) out of range for length 5")
    (fun () -> ignore (Bits.sub b ~pos:(-1) ~len:2))

let test_bits_field_range_errors () =
  (* the random-access field read keeps the named-index error convention
     of the checked accessors: same [pos, pos+len) slice format, same
     length report *)
  let b = Bits.of_string "10110" in
  Alcotest.check_raises "field read past the end"
    (Invalid_argument "Bits.read_int: slice [3, 3+4) out of range for length 5")
    (fun () -> ignore (Bits.read_int b ~pos:3 ~width:4));
  Alcotest.check_raises "negative field position"
    (Invalid_argument "Bits.read_int: slice [-1, -1+2) out of range for length 5")
    (fun () -> ignore (Bits.read_int b ~pos:(-1) ~width:2));
  let r = Bits.Reader.of_bits b in
  Alcotest.check_raises "reader past the end is Underflow" Bits.Reader.Underflow
    (fun () -> ignore (Bits.Reader.int r ~width:6));
  (* same terse convention as Bits.of_int, whose contract the writer keeps *)
  Alcotest.check_raises "writer width validation"
    (Invalid_argument "Bits.Writer.int: width")
    (fun () -> ignore (Bits.Writer.int (Bits.Writer.create ()) ~width:63 1));
  Alcotest.check_raises "writer value validation"
    (Invalid_argument "Bits.Writer.int: value")
    (fun () -> ignore (Bits.Writer.int (Bits.Writer.create ()) ~width:2 4))

let test_bits_field_reads_agree () =
  (* in range, the byte-buffer field reads agree with the checked
     Bits.to_int (Bits.sub ...) reference bit for bit *)
  let b = Bits.of_string "10111011101" in
  let reference ~pos ~width = Bits.to_int (Bits.sub b ~pos ~len:width) in
  Alcotest.(check int) "read_int at 0" 93 (Bits.read_int b ~pos:0 ~width:7);
  Alcotest.(check int) "read_int mid" 5 (Bits.read_int b ~pos:8 ~width:3);
  for pos = 0 to Bits.length b do
    for width = 0 to Bits.length b - pos do
      Alcotest.(check int)
        (Printf.sprintf "read_int pos=%d width=%d" pos width)
        (reference ~pos ~width) (Bits.read_int b ~pos ~width);
      Alcotest.(check int)
        (Printf.sprintf "unsafe_int pos=%d width=%d" pos width)
        (reference ~pos ~width) (Bits.unsafe_int b ~pos ~width)
    done
  done;
  let r = Bits.Reader.of_bits b in
  Alcotest.(check int) "reader int" 93 (Bits.Reader.int r ~width:7);
  Alcotest.(check bool) "reader bool" true (Bits.Reader.bool r);
  Alcotest.(check int) "reader second int" 5 (Bits.Reader.int r ~width:3);
  Alcotest.(check int) "reader drained" 0 (Bits.Reader.remaining r)

let test_bits_writer_capacity_reuse () =
  (* [?capacity] preallocates ahead of the label; reset-reuse on a
     preallocated writer must produce exactly the Bits.of_int reference,
     both under and over the capacity *)
  let encode w fields =
    List.iter (fun (width, v) -> Bits.Writer.int w ~width v) fields;
    Bits.Writer.contents w
  in
  let reference fields = Bits.concat (List.map (fun (width, v) -> Bits.of_int ~width v) fields) in
  let small = [ (3, 5); (1, 1) ] in
  let large = [ (30, 12345); (30, 999_999); (30, 7) ] in
  let w = Bits.Writer.create ~capacity:256 () in
  Alcotest.(check bool) "preallocated writer, small label" true
    (Bits.equal (reference small) (encode w small));
  Alcotest.(check int) "length counts the written bits" 4 (Bits.Writer.length w);
  Bits.Writer.reset w;
  Alcotest.(check int) "reset rewinds" 0 (Bits.Writer.length w);
  Alcotest.(check bool) "reset-reuse with a larger label" true
    (Bits.equal (reference large) (encode w large));
  Bits.Writer.reset w;
  Alcotest.(check bool) "reset-reuse back to a small label leaks nothing" true
    (Bits.equal (reference small) (encode w small));
  (* overflowing a tiny capacity grows transparently *)
  let tiny = Bits.Writer.create ~capacity:1 () in
  Alcotest.(check bool) "growth past capacity" true
    (Bits.equal (reference large) (encode tiny large))

let test_bits_unsafe_sub () =
  (* in range, unsafe_sub agrees with sub; past the logical length it
     reads zeroed padding without raising — hence the lint gate *)
  let b = Bits.of_string "110010111" in
  Alcotest.(check string) "in-range agrees with sub"
    (Bits.to_string (Bits.sub b ~pos:2 ~len:4))
    (Bits.to_string (Bits.unsafe_sub b ~pos:2 ~len:4));
  Alcotest.(check string) "padding reads as zeros" "1110000"
    (Bits.to_string (Bits.unsafe_sub b ~pos:6 ~len:7))

let test_bits_equal () =
  Alcotest.(check bool) "equal" true (Bits.equal (Bits.of_string "101") (Bits.of_string "101"));
  Alcotest.(check bool) "length differs" false (Bits.equal (Bits.of_string "1010") (Bits.of_string "101"));
  Alcotest.(check bool) "content differs" false (Bits.equal (Bits.of_string "100") (Bits.of_string "101"))

let prop_bits_string_roundtrip =
  QCheck.Test.make ~name:"bits: of_string/to_string roundtrip" ~count:200
    QCheck.(string_gen_of_size (Gen.int_bound 64) (Gen.oneofl [ '0'; '1' ]))
    (fun s -> Bits.to_string (Bits.of_string s) = s)

let prop_bits_int_roundtrip =
  QCheck.Test.make ~name:"bits: of_int/to_int roundtrip" ~count:500
    QCheck.(pair (int_range 1 30) (int_bound 1000000))
    (fun (width, v) ->
      QCheck.assume (v < 1 lsl width);
      Bits.to_int (Bits.of_int ~width v) = v)

let prop_bits_append_length =
  QCheck.Test.make ~name:"bits: |a ++ b| = |a| + |b|" ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (x, y) ->
      let rng = Rng.create (x + (1000 * y)) in
      let a = Bits.random rng (x mod 100) and b = Bits.random rng (y mod 100) in
      Bits.length (Bits.append a b) = Bits.length a + Bits.length b)

(* a mixed bool/int/bits program: the writer equals the Bits.concat of
   the per-field images, and the reader reads every field back *)
type field = Fbool of bool | Fint of int * int | Fbits of string

let prop_bits_writer_reader_program =
  let field =
    QCheck.Gen.(
      oneof
        [
          map (fun b -> Fbool b) bool;
          map2 (fun w v -> Fint (w, if w = 0 then 0 else v land ((1 lsl w) - 1))) (int_range 0 62) nat;
          map (fun s -> Fbits s) (string_size ~gen:(oneofl [ '0'; '1' ]) (int_bound 40));
        ])
  in
  QCheck.Test.make ~name:"bits: Writer/Reader programs match the Bits.concat reference" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 24) field))
    (fun fields ->
      let image = function
        | Fbool b -> Bits.of_bool b
        | Fint (width, v) -> Bits.of_int ~width v
        | Fbits s -> Bits.of_string s
      in
      let w = Bits.Writer.create ~capacity:8 () in
      List.iter
        (function
          | Fbool b -> Bits.Writer.bool w b
          | Fint (width, v) -> Bits.Writer.int w ~width v
          | Fbits s -> Bits.Writer.bits w (Bits.of_string s))
        fields;
      let b = Bits.Writer.contents w in
      let r = Bits.Reader.of_bits b in
      Bits.equal b (Bits.concat (List.map image fields))
      && Bits.Writer.length w = Bits.length b
      && List.for_all
           (function
             | Fbool x -> Bits.Reader.bool r = x
             | Fint (width, v) -> Bits.Reader.int r ~width = v
             | Fbits s -> Bits.to_string (Bits.Reader.bits r ~len:(String.length s)) = s)
           fields
      && Bits.Reader.remaining r = 0)

(* ---- Bits kernels against a bit-at-a-time reference ----------------- *)

(* The reference model: a bitstring is its '0'/'1' string, and integers
   go in and out of it one bit at a time, MSB first.  Bits.of_string and
   Bits.to_string build and read bit by bit, so they bridge the model and
   the byte-chunked kernels under test. *)
let ref_of_int ~width v =
  String.init width (fun k -> if (v lsr (width - 1 - k)) land 1 = 1 then '1' else '0')

let ref_to_int s = String.fold_left (fun v c -> (v lsl 1) lor if c = '1' then 1 else 0) 0 s

let ref_image = function
  | Fbool b -> if b then "1" else "0"
  | Fint (width, v) -> ref_of_int ~width v
  | Fbits s -> s

let gen_bitstring len = QCheck.Gen.(string_size ~gen:(oneofl [ '0'; '1' ]) len)

(* a width in 0..62 and a value that fits it, up to the full 62 bits *)
let gen_int_field =
  QCheck.Gen.(int_range 0 62 >>= fun w -> map (fun v -> (w, v land ((1 lsl w) - 1))) int)

let gen_field =
  QCheck.Gen.(
    oneof
      [
        map (fun b -> Fbool b) bool;
        map (fun (w, v) -> Fint (w, v)) gen_int_field;
        map (fun s -> Fbits s) (gen_bitstring (int_bound 80));
      ])

let prop_bits_writer_reference =
  QCheck.Test.make ~name:"bits: reset-reused Writer over a dirty buffer matches the reference" ~count:300
    (QCheck.make QCheck.Gen.(pair (int_bound 400) (list_size (int_range 0 24) gen_field)))
    (fun (dirty, fields) ->
      (* stale ones everywhere a field lands: each kernel must clear them *)
      let w = Bits.Writer.create ~capacity:8 () in
      Bits.Writer.bits w (Bits.of_string (String.make dirty '1'));
      Bits.Writer.reset w;
      List.iter
        (function
          | Fbool b -> Bits.Writer.bool w b
          | Fint (width, v) -> Bits.Writer.int w ~width v
          | Fbits s -> Bits.Writer.bits w (Bits.of_string s))
        fields;
      let expected = String.concat "" (List.map ref_image fields) in
      let b = Bits.Writer.contents w in
      Bits.to_string b = expected
      && Bits.equal b (Bits.of_string expected)
      && Bits.Writer.length w = String.length expected)

let prop_bits_reads_reference =
  let slice =
    QCheck.Gen.(
      gen_bitstring (int_bound 200) >>= fun s ->
      let l = String.length s in
      int_range 0 l >>= fun pos ->
      int_range 0 (l - pos) >|= fun len -> (s, pos, len))
  in
  QCheck.Test.make ~name:"bits: field reads and slices at unaligned offsets match the reference"
    ~count:500 (QCheck.make slice)
    (fun (s, pos, len) ->
      let b = Bits.of_string s and width = min 62 len in
      let expected = ref_to_int (String.sub s pos width) in
      let r = Bits.Reader.of_bits b in
      ignore (Bits.Reader.bits r ~len:pos);
      Bits.read_int b ~pos ~width = expected
      && Bits.unsafe_int b ~pos ~width = expected
      && Bits.Reader.int r ~width = expected
      && Bits.Reader.remaining r = String.length s - pos - width
      && Bits.to_string (Bits.sub b ~pos ~len) = String.sub s pos len
      && Bits.equal (Bits.sub b ~pos ~len) (Bits.of_string (String.sub s pos len)))

let prop_bits_constructors_reference =
  QCheck.Test.make ~name:"bits: of_int, to_int, concat and append match the reference" ~count:300
    (QCheck.make
       QCheck.Gen.(pair gen_int_field (list_size (int_range 0 8) (gen_bitstring (int_bound 90)))))
    (fun ((width, v), parts) ->
      let b = Bits.of_int ~width v in
      let joined = String.concat "" parts in
      let bs = List.map Bits.of_string parts in
      Bits.to_string b = ref_of_int ~width v
      && Bits.to_int b = v
      && Bits.equal (Bits.concat bs) (Bits.of_string joined)
      && Bits.equal
           (List.fold_left Bits.append Bits.empty bs)
           (Bits.of_string joined)
      && Bits.equal (Bits.append b (Bits.concat bs)) (Bits.of_string (ref_of_int ~width v ^ joined)))

(* ---- Min_heap ------------------------------------------------------ *)

let test_heap_basic () =
  let h = Min_heap.create ~capacity:2 ~dummy:"-" () in
  Alcotest.(check bool) "fresh heap empty" true (Min_heap.is_empty h);
  Min_heap.push h ~k0:3 ~k1:0 ~k2:0 "c";
  Min_heap.push h ~k0:1 ~k1:2 ~k2:0 "b";
  Min_heap.push h ~k0:1 ~k1:1 ~k2:9 "a";
  Alcotest.(check int) "size" 3 (Min_heap.size h);
  Alcotest.(check (option (triple int int int))) "min key" (Some (1, 1, 9)) (Min_heap.min_key h);
  Alcotest.(check (option int)) "min k0" (Some 1) (Min_heap.min_k0 h);
  (match Min_heap.pop_min h with
  | Some (1, 1, 9, "a") -> ()
  | _ -> Alcotest.fail "wrong min");
  (match Min_heap.pop_min h with
  | Some (1, 2, 0, "b") -> ()
  | _ -> Alcotest.fail "wrong second");
  Min_heap.clear h;
  Alcotest.(check bool) "cleared" true (Min_heap.is_empty h);
  Alcotest.(check (option int)) "no min" None (Min_heap.min_k0 h)

let prop_heap_pop_sorted =
  QCheck.Test.make ~name:"min_heap: drain order is the sorted key order" ~count:200
    QCheck.(list_of_size (Gen.int_bound 200) (triple (int_bound 50) (int_bound 50) (int_bound 50)))
    (fun keys ->
      let h = Min_heap.create ~dummy:(-1) () in
      List.iteri (fun i (a, b, c) -> Min_heap.push h ~k0:a ~k1:b ~k2:c i) keys;
      let rec drain acc =
        match Min_heap.pop_min h with
        | None -> List.rev acc
        | Some (a, b, c, _) -> drain ((a, b, c) :: acc)
      in
      drain [] = List.sort compare keys)

let prop_heap_interleaved_model =
  (* alternate random pushes and pops against a sorted-list model; unique
     keys via the insertion counter so the model's order is total *)
  QCheck.Test.make ~name:"min_heap: interleaved push/pop matches a sorted-list model" ~count:100
    QCheck.(list_of_size (Gen.int_bound 300) (pair (int_bound 100) bool))
    (fun ops ->
      let h = Min_heap.create ~capacity:1 ~dummy:(-1) () in
      let model = ref [] in
      let counter = ref 0 in
      List.for_all
        (fun (t, is_pop) ->
          if is_pop then
            match (Min_heap.pop_min h, !model) with
            | None, [] -> true
            | Some (a, b, c, v), k :: rest ->
                model := rest;
                (a, b, c, v) = k
            | _ -> false
          else begin
            incr counter;
            Min_heap.push h ~k0:t ~k1:!counter ~k2:0 !counter;
            model := List.sort compare ((t, !counter, 0, !counter) :: !model);
            Min_heap.size h = List.length !model
          end)
        ops)

(* ---- Rng ----------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let base = Rng.create 7 in
  let a = Rng.split base 1 and b = Rng.split base 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_reproducible () =
  let x = Rng.bits64 (Rng.split (Rng.create 5) 9) in
  let y = Rng.bits64 (Rng.split (Rng.create 5) 9) in
  Alcotest.(check int64) "split reproducible" x y

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_uniformish () =
  let rng = Rng.create 11 in
  let counts = Array.make 8 0 in
  for _ = 1 to 8000 do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 800 && c < 1200)) counts

let test_rng_shuffle_permutation () =
  let rng = Rng.create 13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ---- split_string domain separation (rng.mli invariant) ------------- *)

let streams_differ a b =
  (* 64 draws from truly independent streams collide with probability ~2^-58
     per draw; any overlap beyond noise means the keys were conflated. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  !same < 4

let key_gen =
  QCheck.string_gen_of_size (QCheck.Gen.int_range 0 24) QCheck.Gen.printable

let prop_split_string_empty_vs_any =
  QCheck.Test.make ~name:"rng: split_string \"\" differs from any non-empty key" ~count:100
    QCheck.(pair (int_bound 10000) key_gen)
    (fun (seed, key) ->
      QCheck.assume (key <> "");
      let base = Rng.create seed in
      streams_differ (Rng.split_string base "") (Rng.split_string base key))

let prop_split_string_prefix_keys =
  QCheck.Test.make ~name:"rng: split_string on a proper prefix differs from the full key" ~count:100
    QCheck.(triple (int_bound 10000) key_gen (string_gen_of_size (Gen.int_range 1 12) Gen.printable))
    (fun (seed, key, suffix) ->
      let base = Rng.create seed in
      streams_differ (Rng.split_string base key) (Rng.split_string base (key ^ suffix)))

let prop_split_string_stable =
  QCheck.Test.make ~name:"rng: split_string ignores how much of the parent was consumed" ~count:100
    QCheck.(triple (int_bound 10000) key_gen (int_range 0 20))
    (fun (seed, key, draws) ->
      let fresh = Rng.create seed in
      let consumed = Rng.create seed in
      for _ = 1 to draws do
        ignore (Rng.bits64 consumed)
      done;
      Rng.bits64 (Rng.split_string fresh key) = Rng.bits64 (Rng.split_string consumed key))

(* ---- Sha256 --------------------------------------------------------- *)

let test_sha256_vectors () =
  (* FIPS 180-4 test vectors *)
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  Alcotest.(check string) "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_million_a () =
  Alcotest.(check string) "10^6 x a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_sha256_bytes_and_hex_of_raw () =
  let raw = Sha256.digest_string "abc" in
  Alcotest.(check int) "raw is 32 bytes" 32 (String.length raw);
  Alcotest.(check string) "hex_of_raw agrees" (Sha256.hex "abc") (Sha256.hex_of_raw raw);
  Alcotest.(check string) "digest_bytes agrees" raw
    (Sha256.digest_bytes (Bytes.of_string "abc"))

(* ---- Prime / Fp ---------------------------------------------------- *)

let test_primes_small () =
  Alcotest.(check (list bool)) "primality"
    [ false; false; true; true; false; true; false; true; false; false ]
    (List.map Prime.is_prime [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ])

let test_next_prime () =
  Alcotest.(check int) "next_prime 10" 11 (Prime.next_prime 10);
  Alcotest.(check int) "next_prime 13" 17 (Prime.next_prime 13);
  Alcotest.(check int) "next_prime 1" 2 (Prime.next_prime 1);
  Alcotest.(check int) "next_prime 1000" 1009 (Prime.next_prime 1000)

let test_fp_ops () =
  let f = Fp.create 101 in
  Alcotest.(check int) "add" 3 (Fp.add f 52 52);
  Alcotest.(check int) "sub" 99 (Fp.sub f 3 5);
  Alcotest.(check int) "mul" (50 * 50 mod 101) (Fp.mul f 50 50);
  Alcotest.(check int) "pow" (Fp.mul f 7 (Fp.mul f 7 7)) (Fp.pow f 7 3);
  Alcotest.(check int) "fermat" 1 (Fp.pow f 5 100)

let test_fp_inverse () =
  let f = Fp.create 97 in
  for a = 1 to 96 do
    Alcotest.(check int) "a * a^-1 = 1" 1 (Fp.mul f a (Fp.inv f a))
  done

let test_fp_bit_width () =
  Alcotest.(check int) "width 101" 7 (Fp.bit_width (Fp.create 101));
  Alcotest.(check int) "width 2" 1 (Fp.bit_width (Fp.create 2));
  Alcotest.(check int) "width 257" 9 (Fp.bit_width (Fp.create 257))

(* ---- Poly ---------------------------------------------------------- *)

let test_poly_eval () =
  let f = Fp.create 101 in
  (* phi_{1,2,3}(x) = (1-x)(2-x)(3-x) at x=5: (-4)(-3)(-2) = -24 = 77 *)
  Alcotest.(check int) "eval" (Fp.of_int f (-24)) (Poly.eval f [ 1; 2; 3 ] 5)

let test_poly_multiset_order_invariance () =
  let f = Fp.create 211 in
  Alcotest.(check int) "order invariant" (Poly.eval f [ 4; 9; 9; 2 ] 17) (Poly.eval f [ 9; 2; 4; 9 ] 17)

let test_poly_prefixes () =
  let f = Fp.create 211 in
  let groups = [ [ 1; 2 ]; []; [ 3 ]; [ 4; 5 ] ] in
  let p = Poly.eval_prefixes f groups 7 in
  Alcotest.(check int) "prefix 0" (Poly.eval f [ 1; 2 ] 7) p.(0);
  Alcotest.(check int) "prefix 1" p.(0) p.(1);
  Alcotest.(check int) "prefix 2" (Poly.eval f [ 1; 2; 3 ] 7) p.(2);
  Alcotest.(check int) "prefix 3" (Poly.eval f [ 1; 2; 3; 4; 5 ] 7) p.(3)

(* Both characteristic polynomials are monic up to the sign (-1)^|s| and of
   degree |s|, so when the multisets differ their difference is a nonzero
   polynomial of degree < |s|: it has at most |s| - 1 roots in F_1009.  The
   count runs over every point of the field, which makes the property
   deterministic and exactly the Schwartz-Zippel bound the protocols use. *)
let prop_poly_identity_testing =
  QCheck.Test.make ~name:"poly: distinct multisets collide rarely" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8) (int_bound 30))
    (fun s ->
      let f = Fp.create 1009 in
      let s' = List.map (fun x -> x + 1) s in
      QCheck.assume (List.sort compare s <> List.sort compare s');
      let collisions = ref 0 in
      for z = 0 to 1008 do
        if Poly.eval f s z = Poly.eval f s' z then incr collisions
      done;
      !collisions <= List.length s - 1)

let () =
  Alcotest.run "util"
    [
      ( "bits",
        [
          Alcotest.test_case "int roundtrip" `Quick test_bits_roundtrip;
          Alcotest.test_case "get" `Quick test_bits_get;
          Alcotest.test_case "append/concat" `Quick test_bits_append;
          Alcotest.test_case "sub" `Quick test_bits_sub;
          Alcotest.test_case "writer/reader" `Quick test_bits_writer_reader;
          Alcotest.test_case "reader underflow" `Quick test_bits_reader_underflow;
          Alcotest.test_case "range errors" `Quick test_bits_range_errors;
          Alcotest.test_case "flat range errors" `Quick test_bits_field_range_errors;
          Alcotest.test_case "flat agrees with checked" `Quick test_bits_field_reads_agree;
          Alcotest.test_case "flat capacity preallocation" `Quick test_bits_writer_capacity_reuse;
          Alcotest.test_case "unsafe_sub" `Quick test_bits_unsafe_sub;
          Alcotest.test_case "equal" `Quick test_bits_equal;
          qtest prop_bits_string_roundtrip;
          qtest prop_bits_int_roundtrip;
          qtest prop_bits_append_length;
          qtest prop_bits_writer_reader_program;
          qtest prop_bits_writer_reference;
          qtest prop_bits_reads_reference;
          qtest prop_bits_constructors_reference;
        ] );
      ( "min-heap",
        [
          Alcotest.test_case "push/pop/clear" `Quick test_heap_basic;
          qtest prop_heap_pop_sorted;
          qtest prop_heap_interleaved_model;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "split reproducible" `Quick test_rng_split_reproducible;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniform-ish" `Quick test_rng_uniformish;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          qtest prop_split_string_empty_vs_any;
          qtest prop_split_string_prefix_keys;
          qtest prop_split_string_stable;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Quick test_sha256_million_a;
          Alcotest.test_case "raw digest" `Quick test_sha256_bytes_and_hex_of_raw;
        ] );
      ( "field",
        [
          Alcotest.test_case "small primes" `Quick test_primes_small;
          Alcotest.test_case "next_prime" `Quick test_next_prime;
          Alcotest.test_case "fp ops" `Quick test_fp_ops;
          Alcotest.test_case "fp inverse" `Quick test_fp_inverse;
          Alcotest.test_case "fp bit width" `Quick test_fp_bit_width;
        ] );
      ( "poly",
        [
          Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "multiset order invariance" `Quick test_poly_multiset_order_invariance;
          Alcotest.test_case "prefixes" `Quick test_poly_prefixes;
          qtest prop_poly_identity_testing;
        ] );
    ]
