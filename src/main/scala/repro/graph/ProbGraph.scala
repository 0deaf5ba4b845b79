package repro.graph

/** A probabilistic graph G = (V, E, p): undirected simple graph with an
  * independent existence probability per edge (Section 2).
  *
  * Edges are canonicalised to u < v. Vertices are dense ids 0..n-1 after
  * [[ProbGraph.apply]]; the original labels are kept in `labels` so results
  * can be reported against the input ids.
  */
final class ProbGraph private (
    val n: Int,
    val labels: Array[Long],
    /** CSR offsets into `adj`/`adjProb`, length n+1. */
    val offsets: Array[Int],
    /** neighbour lists, sorted ascending per vertex. */
    val adj: Array[Int],
    /** probability of the edge to the corresponding neighbour. */
    val adjProb: Array[Double]
) {

  /** Number of undirected edges. */
  val m: Int = adj.length / 2

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  def maxDegree: Int = (0 until n).foldLeft(0)((b, v) => math.max(b, degree(v)))

  /** Neighbours of v (sorted). */
  def neighbors(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(adj, offsets(v), offsets(v + 1))

  /** CSR slot of neighbour v in row u; negative if (u,v) is absent. */
  def slot(u: Int, v: Int): Int = java.util.Arrays.binarySearch(adj, offsets(u), offsets(u + 1), v)

  /** Probability of edge (u,v); NaN if absent. */
  def prob(u: Int, v: Int): Double = {
    val i = slot(u, v)
    if (i < 0) Double.NaN else adjProb(i)
  }

  def hasEdge(u: Int, v: Int): Boolean = !prob(u, v).isNaN

  /** Calls `f(u, s)` for every CSR slot s of row u with u < adj(s): each
    * edge once, in [[edges]] order.
    */
  def forEachEdge(f: (Int, Int) => Unit): Unit = {
    var u = 0
    while (u < n) {
      var s = offsets(u)
      while (s < offsets(u + 1)) { if (u < adj(s)) f(u, s); s += 1 }
      u += 1
    }
  }

  /** Undirected edge list with canonical u < v. */
  def edges: Array[(Int, Int, Double)] = {
    val out = Array.newBuilder[(Int, Int, Double)]
    forEachEdge((u, s) => out += ((u, adj(s), adjProb(s))))
    out.result()
  }

  /** Pr(e) of every edge, in [[edges]] order. */
  def edgeProbs: Array[Double] = {
    val out = new Array[Double](m)
    var e = 0
    forEachEdge { (_, s) => out(e) = adjProb(s); e += 1 }
    out
  }

  /** Index in [[edges]] of the edge at every CSR slot of row u with u < adj(slot). */
  def edgeIds: Array[Int] = {
    val ids = new Array[Int](adj.length)
    var e = 0
    forEachEdge { (_, s) => ids(s) = e; e += 1 }
    ids
  }

  /** The graph of some of this graph's edges `es` (dense ids, each with the
    * probability to give it), keeping this graph's vertex labels.
    */
  def subgraph(es: scala.collection.Seq[(Int, Int, Double)]): ProbGraph = {
    val a = new Array[Long](es.length); val b = new Array[Long](es.length); val p = new Array[Double](es.length)
    var i = 0
    es.foreach { case (u, v, q) => a(i) = labels(u); b(i) = labels(v); p(i) = q; i += 1 }
    ProbGraph.build(a, b, p, i)
  }

  /** Average edge probability (Table 1 column p_avg). */
  def avgProb: Double = if (m == 0) 0.0 else {
    var s = 0.0; var i = 0
    while (i < adj.length) { s += adjProb(i); i += 1 }
    s / 2 / m
  }
}

object ProbGraph {

  /** Build from an edge list. The input contract:
    *  - every probability p must lie in (0, 1]; anything else, NaN and ±∞
    *    included, is rejected with an `IllegalArgumentException`;
    *  - self-loops (a, a, p) are dropped after their p is checked, so a
    *    vertex with no other edge is not in the graph;
    *  - (a, b) and (b, a) are one edge, and of several entries for one edge
    *    the first probability is kept and the later ones are ignored;
    *  - vertex labels can be any `Long`; dense ids follow label order.
    */
  def apply(edgeList: Seq[(Long, Long, Double)]): ProbGraph = {
    val a = new Array[Long](edgeList.length); val b = new Array[Long](edgeList.length)
    val p = new Array[Double](edgeList.length)
    var i = 0
    edgeList.foreach { case (x, y, q) => a(i) = x; b(i) = y; p(i) = q; i += 1 }
    build(a, b, p, i)
  }

  /** The one builder: the graph of the entries `(a(e), b(e), p(e))`,
    * `e < len`, under [[apply]]'s contract, checked in entry order.
    *  1. The kept entries' endpoints are sorted by label with an LSD radix
    *     sort on bytes (sign bit flipped; a byte all endpoints share is
    *     skipped), carrying each endpoint's slot: 2k or 2k + 1 for the k-th
    *     kept entry. The runs of equal labels give `labels` and each slot's
    *     dense id at once.
    *  2. Each row is filled with packed `(neighbour << 32) | entry` longs in
    *     entry order and sorted, so the first slot of each run of equal
    *     neighbours is the first entry listed for that edge; the run is
    *     compacted to it.
    */
  private[graph] def build(a: Array[Long], b: Array[Long], p: Array[Double], len: Int): ProbGraph = {
    var kept = 0
    var e = 0
    while (e < len) {
      require(p(e) > 0.0 && p(e) <= 1.0, s"edge probability must be in (0,1], got ${p(e)}")
      if (a(e) != b(e)) kept += 1
      e += 1
    }
    requireEntries(kept)
    var key = new Array[Long](2 * kept); var slot = new Array[Int](2 * kept)
    var k = 0
    e = 0
    while (e < len) {
      if (a(e) != b(e)) { key(k) = a(e); key(k + 1) = b(e); slot(k) = k; slot(k + 1) = k + 1; k += 2 }
      e += 1
    }
    var key2 = new Array[Long](key.length); var slot2 = new Array[Int](key.length)
    val count = new Array[Int](257)
    var shift = 0
    while (shift < 64) {
      java.util.Arrays.fill(count, 0)
      k = 0
      while (k < key.length) { count(digit(key(k), shift) + 1) += 1; k += 1 }
      if (key.length > 0 && count(digit(key(0), shift) + 1) < key.length) {
        var d = 0
        while (d < 256) { count(d + 1) += count(d); d += 1 }
        k = 0
        while (k < key.length) {
          val d = digit(key(k), shift)
          key2(count(d)) = key(k); slot2(count(d)) = slot(k); count(d) += 1
          k += 1
        }
        val tk = key; key = key2; key2 = tk
        val ts = slot; slot = slot2; slot2 = ts
      }
      shift += 8
    }
    val id = slot2 // spare after the sort: id(s) is the dense id of the endpoint at slot s
    var n = 0
    k = 0
    while (k < key.length) {
      if (n == 0 || key(k) != key(n - 1)) { key(n) = key(k); n += 1 }
      id(slot(k)) = n - 1
      k += 1
    }
    val labels  = java.util.Arrays.copyOf(key, n)
    val offsets = new Array[Int](n + 1) // row lengths with repeats, then their starts
    k = 0
    while (k < id.length) { offsets(id(k) + 1) += 1; k += 1 }
    var v = 0
    while (v < n) { offsets(v + 1) += offsets(v); v += 1 }
    val row    = key2 // spare after the sort
    val cursor = java.util.Arrays.copyOf(offsets, n)
    k = 0
    e = 0
    while (e < len) {
      if (a(e) != b(e)) {
        val x = id(k); val y = id(k + 1)
        row(cursor(x)) = pack(y, e); cursor(x) += 1
        row(cursor(y)) = pack(x, e); cursor(y) += 1
        k += 2
      }
      e += 1
    }
    // sort each row and keep the first slot of each run of one neighbour, compacting in place
    var w = 0
    v = 0
    while (v < n) {
      val from = offsets(v); val to = offsets(v + 1)
      java.util.Arrays.sort(row, from, to)
      offsets(v) = w
      var j = from
      while (j < to) {
        if (j == from || (row(j) >>> 32) != (row(j - 1) >>> 32)) { row(w) = row(j); w += 1 }
        j += 1
      }
      v += 1
    }
    offsets(n) = w
    val adj     = new Array[Int](w)
    val adjProb = new Array[Double](w)
    var j = 0
    while (j < w) { adj(j) = (row(j) >>> 32).toInt; adjProb(j) = p(row(j).toInt); j += 1 }
    new ProbGraph(n, labels, offsets, adj, adjProb)
  }

  /** Byte `shift / 8` of `x` with the sign bit flipped: bytes in signed order. */
  private def digit(x: Long, shift: Int): Int = (((x ^ Long.MinValue) >>> shift) & 0xff).toInt

  /** The builder holds two `Int`-indexed slots per kept entry: more than
    * `Int.MaxValue / 2` entries fail loudly instead of wrapping.
    */
  private[graph] def requireEntries(kept: Long): Unit =
    require(kept <= Int.MaxValue / 2, s"$kept edge entries overflow the graph's Int-indexed arrays (at most ${Int.MaxValue / 2})")

  /** A row slot: `neighbour` in the high half and the entry index in the low
    * one, both in [0, 2³¹), so the longs sort by neighbour, then by entry.
    */
  private[graph] def pack(neighbour: Int, entry: Int): Long = {
    assert(neighbour >= 0 && entry >= 0, s"row slot ($neighbour, $entry) does not pack")
    (neighbour.toLong << 32) | entry
  }
}
