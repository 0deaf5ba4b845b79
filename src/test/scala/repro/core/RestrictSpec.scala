package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.cliques.FourCliques
import repro.graph.{GraphGen, ProbGraph}
import scala.util.Random

/** `DetNucleus.Restrict` against `ReferenceWorlds.rebuild`: a set of edges'
  * structure, restricted from its graph's clique structure, equals the
  * structure rebuilt from the graph of those edges, on every g and w
  * candidate of the stand-ins, on random edge sets and on whole graphs; and
  * building one allocates only its own arrays, however large the graph.
  */
class RestrictSpec extends AnyFunSuite {

  /** Asserts that `got`, restricted from `g` with clique structure `gcs`,
    * equals the rebuild of the graph `h` of the same edges: thresholds,
    * triangle edges, cliques, `triCliques` rows and triangle vertices (in
    * labels).
    */
  private def assertSame(what: String, g: ProbGraph, gcs: FourCliques.CliqueStructure,
                         got: DetNucleus.WorldStructure, h: ProbGraph): Unit = {
    val (hcs, want) = ReferenceWorlds.rebuild(h)
    assert(got.thresholds.sameElements(want.thresholds), s"$what: thresholds")
    assert(got.nTriangles == want.nTriangles && got.triEdges.sameElements(want.triEdges), s"$what: triangle edges")
    assert(got.cliqueTris.sameElements(want.cliqueTris), s"$what: cliques")
    assert(got.triCliques.length == want.triCliques.length &&
      got.triCliques.indices.forall(t => got.triCliques(t).sameElements(want.triCliques(t))), s"$what: triCliques")
    def vertices(labels: Array[Long], cs: FourCliques.CliqueStructure, t: Int) =
      (labels(cs.tris.u(t)), labels(cs.tris.v(t)), labels(cs.tris.w(t)))
    assert(got.triIds.indices.forall(i => vertices(g.labels, gcs, got.triIds(i)) == vertices(h.labels, hcs, i)),
      s"$what: triangle vertices")
  }

  /** Checks every g and w candidate of `local` at every level against the
    * rebuild of the graph of its span, as g and w built it; returns, per
    * kind, the number of candidates and of those whose edges close
    * triangles that are not the candidate's.
    */
  private def checkCandidates(what: String, local: LocalNucleus.Decomposition): (Map[String, Int], Map[String, Int]) = {
    val (g, cs) = (local.graph, local.structure)
    val restrict = new DetNucleus.Restrict(g, cs)
    val n     = scala.collection.mutable.Map("g" -> 0, "w" -> 0)
    val extra = scala.collection.mutable.Map("g" -> 0, "w" -> 0)
    for (k <- 1 to local.kMax; c <- ReferenceWorlds.candidates(local, k, restrict)) {
      val got = restrict(c.slots)
      assertSame(s"$what ${c.kind} k=$k candidate ${c.offset}", g, cs, got,
        g.subgraph(LocalNucleus.span(g, cs.tris, c.tris)()._2))
      assert(c.tris.forall(java.util.Arrays.binarySearch(got.triIds, _) >= 0), s"$what ${c.kind} k=$k: a triangle is missing")
      if (got.nTriangles > c.tris.length) extra(c.kind) += 1
      n(c.kind) += 1
    }
    (n.toMap, extra.toMap)
  }

  test("every g and w candidate of the six paper stand-ins at θ = 0.1 and 0.2 equals its rebuild") {
    var total = 0
    val extra = scala.collection.mutable.Map("g" -> 0, "w" -> 0)
    for (ds <- GraphGen.paperDatasets; theta <- Seq(0.1, 0.2)) {
      val (n, e) = checkCandidates(s"$ds θ=$theta", LocalNucleus.decompose(GraphGen.dataset(ds), theta, LocalNucleus.DP))
      info(s"$ds θ=$theta: ${e("g")} of ${n("g")} g and ${e("w")} of ${n("w")} w candidates with triangles beyond their own")
      total += n.values.sum; e.foreach { case (kind, x) => extra(kind) += x }
    }
    assert(total > 1000, s"only $total candidates")
    // a candidate's edges can close triangles that are not its own; the structure holds them too
    assert(extra("g") > 0 && extra("w") > 0, s"triangles beyond the candidate's: $extra")
  }

  test("random edge sets and the candidates of random graphs equal their rebuilds") {
    val rnd = new Random(4242)
    var candidates = 0; var loose = 0
    for (trial <- 1 to 40) {
      val nv = 7 + rnd.nextInt(6)
      val g  = ProbGraph(for { a <- 0 until nv; b <- a + 1 until nv if rnd.nextDouble() < 0.7 }
        yield (a.toLong, b.toLong, 0.3 + 0.7 * rnd.nextDouble()))
      val local    = LocalNucleus.decompose(g, 0.05 + 0.2 * rnd.nextDouble(), LocalNucleus.DP)
      val restrict = new DetNucleus.Restrict(g, local.structure)
      candidates += checkCandidates(s"trial $trial", local)._1.values.sum
      // any set of edges, also ones in no triangle of the set
      for (s <- 1 to 5) {
        val slots = Array.newBuilder[Int]; val edges = Array.newBuilder[(Int, Int, Double)]
        g.forEachEdge { (u, slot) =>
          if (rnd.nextDouble() < 0.75) { slots += slot; edges += ((u, g.adj(slot), g.adjProb(slot))) }
        }
        val got = restrict(slots.result())
        assertSame(s"trial $trial set $s", g, local.structure, got, g.subgraph(edges.result()))
        if (got.triEdges.distinct.length < got.thresholds.length) loose += 1
      }
    }
    assert(candidates > 40, s"only $candidates candidates")
    assert(loose > 0, "no edge set with an edge outside its triangles")
  }

  test("the whole-graph structure keeps an edge in no triangle, which fails coverage") {
    val rnd = new Random(77)
    def clique(vs: Range): Seq[(Long, Long, Double)] = for { a <- vs; b <- vs if a < b } yield (a.toLong, b.toLong, 0.9)
    for (trial <- 1 to 20) {
      val core    = clique(0 until 4 + rnd.nextInt(3))
      val pendant = (rnd.nextInt(4).toLong, 20L + trial, 0.5)
      for (es <- Seq(core, core :+ pendant)) {
        val g  = ProbGraph(es)
        val cs = FourCliques.build(g)
        val ws = DetNucleus.worldStructure(g, cs)
        assertSame(s"trial $trial", g, cs, ws, g)
        assert(ws.thresholds.length == g.m, s"trial $trial: ${ws.thresholds.length} edges of ${g.m}")
        val inTriangle = ws.triEdges.distinct.length
        assert(inTriangle == (if (es eq core) g.m else g.m - 1), s"trial $trial: $inTriangle edges in triangles")
        assert(DetNucleus.isKNucleus(g, 1) == (es eq core), s"trial $trial: a pendant edge must fail coverage")
      }
    }
  }

  test("building a candidate allocates its own arrays only, in krogan as in a larger graph") {
    import repro.Allocation.{array, measure}
    val krogan = GraphGen.dataset("krogan")
    val local  = LocalNucleus.decompose(krogan, 0.1, LocalNucleus.DP)
    // krogan's largest candidate, its biggest ℓ-nucleus at level 1; the larger graph is krogan beside a relabelled dblp
    val tris  = local.nucleiAt(1).maxBy(_.edges.length).triangleIds
    val shift = krogan.labels.max + 1
    val big   = ProbGraph(krogan.edges.toSeq.map { case (u, v, p) => (krogan.labels(u), krogan.labels(v), p) } ++
      GraphGen.dataset("dblp").edges.map { case (u, v, p) => (shift + u, shift + v, p) })
    val bigCs = FourCliques.build(big)
    assert(big.adj.length > 4 * krogan.adj.length && bigCs.nTriangles > 4 * local.structure.nTriangles,
      s"${big.adj.length} slots and ${bigCs.nTriangles} triangles are not much larger than krogan's")
    val edges = LocalNucleus.span(krogan, local.structure.tris, tris)()._2.map { case (u, v, _) => (u, v) }
    val id    = (x: Int) => java.util.Arrays.binarySearch(big.labels, krogan.labels(x))
    val (restrictK, restrictB) = (new DetNucleus.Restrict(krogan, local.structure), new DetNucleus.Restrict(big, bigCs))
    val slotsK = edges.map { case (u, v) => krogan.slot(u, v) }.sorted
    val slotsB = edges.map { case (u, v) => big.slot(id(u), id(v)) }.sorted
    val (wsK, wsB) = (restrictK(slotsK), restrictB(slotsB))
    // the candidate's triangles in the larger graph: at the same places in its structure
    val trisB = tris.map(t => wsB.triIds(java.util.Arrays.binarySearch(wsK.triIds, t)))
    assert(restrictK.slotsOf(tris).sameElements(slotsK) && restrictB.slotsOf(trisB).sameElements(slotsB))
    assert(wsK.thresholds.sameElements(wsB.thresholds) && wsK.triEdges.sameElements(wsB.triEdges) &&
      wsK.cliqueTris.sameElements(wsB.cliqueTris) && wsK.triCliques.indices.forall(t => wsK.triCliques(t).sameElements(wsB.triCliques(t))),
      "the candidate's structure differs between the two graphs")

    val (m, nt, nc) = (wsK.thresholds.length, wsK.nTriangles, wsK.nCliques)
    val support     = wsK.triCliques.map(_.length)
    // the structure: thresholds, triangle edges, cliques, triCliques and its rows, triangle ids
    val structure = array(8, m) + array(4, 3 * nt) + array(4, 4 * nc) + array(8, nt) + support.map(array(4, _)).sum + array(4, nt)
    // its batch words (edgeW, triW, reach, cliqueW, the counter planes) and the rows' counts
    val words = array(8, m) + 2 * array(8, nt) + array(8, nc) + array(8, support.max) + array(4, nt)
    val builtBound  = structure + words + 256
    // the slot buffer, the slots, and what `Arrays.sort` may take for a nearly sorted buffer:
    // a merge buffer of its size and a run table of 128 ints
    val listedBound = 2 * array(4, 3 * tris.length) + array(4, m) + array(4, 128)
    def bytes(restrict: DetNucleus.Restrict, slots: Array[Int], candTris: Array[Int]): (Long, Long) = {
      for (_ <- 1 to 3) { restrict(slots); restrict.slotsOf(candTris) } // class loading and compilation
      ((1 to 3).map(_ => measure(restrict(slots))._2).min, (1 to 3).map(_ => measure(restrict.slotsOf(candTris))._2).min)
    }
    val ((builtK, listedK), (builtB, listedB)) = (bytes(restrictK, slotsK, tris), bytes(restrictB, slotsB, trisB))
    info(s"$m edges, $nt triangles, $nc cliques: built $builtK / $builtB bytes (bound $builtBound), " +
      s"slots listed $listedK / $listedB bytes (bound $listedBound)")
    for ((what, got, bound) <- Seq(("krogan build", builtK, builtBound), ("larger build", builtB, builtBound),
                                   ("krogan slots", listedK, listedBound), ("larger slots", listedB, listedBound)))
      assert(got <= bound, s"$what: $got bytes; its own arrays take $bound")
    assert(math.abs(builtK - builtB) <= 64 && math.abs(listedK - listedB) <= 64,
      s"krogan $builtK + $listedK bytes, larger graph $builtB + $listedB")
  }
}
