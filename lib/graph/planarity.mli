(** Planarity testing with embedding extraction.

    The Demoucron–Malgrange–Pertuiset (DMP) vertex/path-addition algorithm:
    grow a planar subgraph face by face, embedding one fragment path per
    step, always preferring fragments with a unique admissible face.  Faces
    carry integer ids, every vertex lists the live faces through it, and a
    face is admissible when it holds all of a fragment's attachments, counted
    over the attachments' faces.  A step costs O(n + m) (one rescan of the
    fragments plus those incidences), O(n^2) in all on planar inputs.  It is
    constructive: on success it returns a rotation system, which the honest
    prover of Theorem 1.5 hands to the embedded-planarity protocol.  The
    preference order over fragments and faces is fixed, so the rotation
    system is a function of the graph; a digest test in [test_recognition]
    pins it byte for byte.

    Blocks are embedded independently and merged at cut vertices (inserting
    one block's rotation into a face corner of the other), and components are
    embedded independently. *)

val is_planar : Graph.t -> bool

val embed : Graph.t -> Rotation.t option
(** [Some rot] with [Rotation.is_planar_embedding rot] iff the graph is
    planar. *)
