package repro.graph

import scala.collection.mutable

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

  /** Undirected edge list with canonical u < v. */
  def edges: Array[(Int, Int, Double)] = {
    val out = Array.newBuilder[(Int, Int, Double)]
    var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        val v = adj(i)
        if (u < v) out += ((u, v, adjProb(i)))
        i += 1
      }
      u += 1
    }
    out.result()
  }

  /** Index in [[edges]] of the edge at every CSR slot of row u with u < adj(slot). */
  def edgeIds: Array[Int] = {
    val ids = new Array[Int](adj.length)
    var e = 0; var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) { if (u < adj(i)) { ids(i) = e; e += 1 }; i += 1 }
      u += 1
    }
    ids
  }

  /** The graph of some of this graph's edges `es` (dense ids, each with the
    * probability to give it), keeping this graph's vertex labels.
    */
  def subgraph(es: Seq[(Int, Int, Double)]): ProbGraph =
    ProbGraph(es.map { case (u, v, p) => (labels(u), labels(v), p) })

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
    val canon = mutable.LinkedHashMap.empty[(Long, Long), Double]
    edgeList.foreach { case (a, b, p) =>
      require(p > 0.0 && p <= 1.0, s"edge probability must be in (0,1], got $p")
      if (a != b) {
        val key = if (a < b) (a, b) else (b, a)
        if (!canon.contains(key)) canon(key) = p
      }
    }
    val labels = canon.keysIterator.flatMap { case (a, b) => Iterator(a, b) }.toArray.distinct.sorted
    val index  = labels.zipWithIndex.toMap
    val n      = labels.length
    val deg    = new Array[Int](n)
    canon.keysIterator.foreach { case (a, b) => deg(index(a)) += 1; deg(index(b)) += 1 }
    val offsets = new Array[Int](n + 1)
    var i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val cursor  = offsets.clone()
    val adj     = new Array[Int](2 * canon.size)
    val adjProb = new Array[Double](2 * canon.size)
    canon.foreach { case ((a, b), p) =>
      val (ia, ib) = (index(a), index(b))
      adj(cursor(ia)) = ib; adjProb(cursor(ia)) = p; cursor(ia) += 1
      adj(cursor(ib)) = ia; adjProb(cursor(ib)) = p; cursor(ib) += 1
    }
    // sort each adjacency row (neighbour, prob) by neighbour id
    var v = 0
    while (v < n) {
      val from = offsets(v); val to = offsets(v + 1)
      val pairs = (from until to).map(j => (adj(j), adjProb(j))).sortBy(_._1)
      var j = from
      pairs.foreach { case (w, p) => adj(j) = w; adjProb(j) = p; j += 1 }
      v += 1
    }
    new ProbGraph(n, labels, offsets, adj, adjProb)
  }
}
