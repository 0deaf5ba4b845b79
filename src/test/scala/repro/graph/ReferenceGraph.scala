package repro.graph

import repro.graph.GraphGen.{ProbDist, Spec}
import scala.collection.mutable
import scala.util.Random

/** The boxed graph build the primitive one replaced, kept as the reference
  * it is compared against array for array: `apply` canonicalises the edges
  * in a `LinkedHashMap` keyed by label pairs, maps labels through a boxed
  * `Map` and sorts each row as tuples; `generate` keeps its edges in a
  * `LinkedHashMap` keyed by vertex pairs. Both are otherwise unchanged.
  */
object ReferenceGraph {

  /** A graph's arrays: dense ids are indices into `labels`. */
  final case class Csr(labels: Array[Long], offsets: Array[Int], adj: Array[Int], adjProb: Array[Double])

  def apply(edgeList: Seq[(Long, Long, Double)]): Csr = {
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
    Csr(labels, offsets, adj, adjProb)
  }

  /** `g.subgraph(es)` as it was: the label triples, built by [[apply]]. */
  def subgraph(g: ProbGraph, es: Seq[(Int, Int, Double)]): Csr =
    ReferenceGraph(es.map { case (u, v, p) => (g.labels(u), g.labels(v), p) })

  def generate(spec: Spec): IndexedSeq[(Long, Long, Double)] = {
    val rnd     = new Random(spec.seed)
    val probRnd = new Random(spec.seed ^ 0x5DEECE66DL)
    val edges   = mutable.LinkedHashMap.empty[(Long, Long), Double]
    def put(a: Int, b: Int, dist: ProbDist): Unit = if (a != b) {
      val key = if (a < b) (a.toLong, b.toLong) else (b.toLong, a.toLong)
      if (!edges.contains(key)) edges(key) = dist.sample(probRnd)
    }
    val plantedDist = spec.cliqueDist.getOrElse(spec.dist)
    // planted cliques: blocks of consecutive-ish vertices with some overlap
    var cursor = 0
    spec.cliqueSizes.foreach { size =>
      val members = new Array[Int](size)
      var i = 0
      while (i < size) {
        members(i) =
          if (rnd.nextDouble() < spec.overlapFraction && cursor > 0)
            rnd.nextInt(math.min(cursor + 1, spec.nVertices))
          else (cursor + i) % spec.nVertices
        i += 1
      }
      cursor = (cursor + size) % spec.nVertices
      var a = 0
      while (a < size) {
        var b = a + 1
        while (b < size) { put(members(a), members(b), plantedDist); b += 1 }
        a += 1
      }
    }
    // ER background
    var tries = 0
    val target = edges.size + spec.nBackgroundEdges
    while (edges.size < target && tries < spec.nBackgroundEdges * 4) {
      put(rnd.nextInt(spec.nVertices), rnd.nextInt(spec.nVertices), spec.dist)
      tries += 1
    }
    edges.iterator.map { case ((a, b), p) => (a, b, p) }.toIndexedSeq
  }
}
