package repro.core

import repro.cliques.{FourCliques, Triangles}
import repro.cliques.FourCliques.CliqueStructure
import repro.graph.ProbGraph
import repro.prob.{Approximations, PoissonBinomial}

/** ℓ-NuDecomp (Section 5, Algorithm 1): probabilistic local (3,4)-nucleus
  * decomposition by triangle peeling.
  *
  * Scores come either from the exact dynamic program (mode [[DP]]) or the
  * hybrid statistical approximation (mode [[AP]], Section 5.3). The output
  * assigns every triangle its nucleusness ν and materialises the
  * ℓ-(k,θ)-nuclei for every k.
  */
object LocalNucleus {

  sealed trait Mode
  /** Exact dynamic programming (Section 5.1/5.2). */
  case object DP extends Mode
  /** Hybrid statistical approximation with DP fallback (Section 5.3). */
  case object AP extends Mode

  /** One ℓ-(k,θ)-nucleus: a connected (via shared 4-cliques) set of
    * triangles of nucleusness ≥ k, materialised as a probabilistic subgraph.
    */
  final case class Nucleus(
      k: Int,
      triangleIds: Array[Int],
      vertices: Array[Int],
      /** canonical (u < v) edges with probabilities, from the input graph */
      edges: Array[(Int, Int, Double)]
  ) {
    def nVertices: Int = vertices.length
    def nEdges: Int    = edges.length
  }

  /** Full decomposition result. */
  final case class Decomposition(
      graph: ProbGraph,
      structure: CliqueStructure,
      theta: Double,
      /** ν per triangle; −1 = triangle exists with probability < θ */
      nu: Array[Int],
      initialKappa: Array[Int]
  ) {
    lazy val kMax: Int = if (nu.isEmpty) 0 else math.max(0, nu.max)

    /** All ℓ-(k,θ)-nuclei for one k. */
    def nucleiAt(k: Int): Seq[Nucleus] = nuclei(this, k, k)

    /** All nuclei for all k in 1..kMax, by increasing k, from one sweep. */
    def allNuclei: Seq[Nucleus] = nuclei(this, 1, kMax)

    /** The level of each 4-clique: the least ν of its four member
      * triangles, so a clique is k-alive (all members have ν ≥ k) iff its
      * level is ≥ k. Levels lie in −1..kMax.
      */
    def cliqueLevels: Array[Int] = {
      val ct    = structure.cliqueTris
      val level = new Array[Int](structure.nCliques)
      var c = 0
      while (c < level.length) {
        level(c) = math.min(math.min(nu(ct(4 * c)), nu(ct(4 * c + 1))), math.min(nu(ct(4 * c + 2)), nu(ct(4 * c + 3))))
        c += 1
      }
      level
    }
  }

  /** A fresh scorer for one peel (DP's holds its DP row). */
  def scorer(mode: Mode): ProbPeeling.Scorer = mode match {
    case DP => new PoissonBinomial.KappaDp
    case AP => Approximations.kappaAuto(_, _, _)
  }

  /** Build the peeling-kernel input from a clique structure: items are
    * triangles with itemProb = Pr(Δ); groups are 4-cliques with the
    * Pr(E_i) incidences of Section 5.1.
    */
  def kernelInput(cs: CliqueStructure): ProbPeeling.Input =
    ProbPeeling.Input.ofGroups(cs.tris.prob, 4, cs.cliqueTris, cs.cliquePrE)

  /** Run the decomposition. */
  def decompose(g: ProbGraph, theta: Double, mode: Mode = DP): Decomposition =
    decompose(g, FourCliques.build(g), theta, mode)

  /** Same, reusing a prebuilt structure (lets DP and AP share enumeration). */
  def decompose(g: ProbGraph, cs: CliqueStructure, theta: Double, mode: Mode): Decomposition = {
    val res = ProbPeeling.peel(kernelInput(cs), theta, scorer(mode))
    Decomposition(g, cs, theta, res.nu, res.initialKappa)
  }

  /** The ℓ-(k,θ)-nuclei for every k in lo..hi, by increasing k: the
    * [[components]], each spanned in the graph.
    */
  private def nuclei(d: Decomposition, lo: Int, hi: Int): Seq[Nucleus] = {
    val seenV = new java.util.BitSet(d.graph.n)
    val seenE = new java.util.BitSet(d.graph.adj.length)
    components(d, lo, hi).flatMap { case (k, comps) =>
      comps.map { triIds =>
        val (vs, es) = span(d.graph, d.structure.tris, triIds)(seenV, seenE)
        Nucleus(k, triIds, vs, es)
      }
    }
  }

  /** The triangle ids of the ℓ-(k,θ)-nuclei for every k in lo..hi, by
    * increasing k, from one sweep. A nucleus at level k is a set of
    * triangles joined by k-alive cliques (level ≥ k): this realises both
    * the cliqueness precondition (nuclei are unions of 4-cliques) and
    * s-connectedness. The cliques are bucketed by level with one counting
    * sort; the levels are walked from kMax down, uniting each bucket's
    * cliques into one union-find, and at each requested level the
    * components of the covered triangles are read off: ordered by least
    * triangle id, each in increasing order.
    */
  private[core] def components(d: Decomposition, lo: Int, hi: Int): List[(Int, Seq[Array[Int]])] = {
    val cs    = d.structure
    val ct    = cs.cliqueTris
    val level = d.cliqueLevels
    val top   = d.kMax
    // bucket l (−1 ≤ l ≤ top) is byLevel(start(l + 1) until start(l + 2))
    val start = new Array[Int](top + 3)
    var c = 0
    while (c < level.length) { start(level(c) + 2) += 1; c += 1 }
    var b = 1
    while (b < start.length) { start(b) += start(b - 1); b += 1 }
    val byLevel = new Array[Int](level.length)
    val cursor  = start.clone()
    c = 0
    while (c < level.length) { byLevel(cursor(level(c) + 1)) = c; cursor(level(c) + 1) += 1; c += 1 }

    val uf      = new UnionFind(cs.nTriangles)
    val covered = new Array[Boolean](cs.nTriangles)
    var out     = List.empty[(Int, Seq[Array[Int]])]
    var united  = top + 1 // buckets united..top are in the union-find
    var k = math.min(hi, top)
    while (k >= lo) {
      while (united > math.max(k, -1)) {
        united -= 1
        var i = start(united + 1)
        while (i < start(united + 2)) {
          val first = 4 * byLevel(i)
          var j = first
          while (j < first + 4) { uf.union(ct(j), ct(first)); covered(ct(j)) = true; j += 1 }
          i += 1
        }
      }
      out = (k, uf.components(covered(_))) :: out
      k -= 1
    }
    out
  }

  /** The vertices (ascending) and edges (first seen first: (u,v), (u,w),
    * (v,w) per triangle u < v < w, with their probabilities) of the
    * triangles `triIds` of `g`. `seenV` and `seenE` mark vertices and CSR
    * slots; they are empty on entry and on return.
    */
  private[core] def span(g: ProbGraph, tris: Triangles.TriangleList, triIds: Array[Int])(
      seenV: java.util.BitSet = new java.util.BitSet(g.n),
      seenE: java.util.BitSet = new java.util.BitSet(g.adj.length)): (Array[Int], Array[(Int, Int, Double)]) = {
    val eu = new Array[Int](3 * triIds.length) // first-seen edges: row and CSR slot
    val es = new Array[Int](3 * triIds.length)
    var ne = 0
    var i  = 0
    while (i < triIds.length) {
      val t = triIds(i)
      val u = tris.u(t); val v = tris.v(t); val w = tris.w(t)
      seenV.set(u); seenV.set(v); seenV.set(w)
      var j = 0
      while (j < 3) {
        val s = tris.slots(3 * t + j)
        if (!seenE.get(s)) { seenE.set(s); eu(ne) = if (j < 2) u else v; es(ne) = s; ne += 1 }
        j += 1
      }
      i += 1
    }
    val vs = new Array[Int](seenV.cardinality())
    var x = seenV.nextSetBit(0)
    i = 0
    while (x >= 0) { vs(i) = x; i += 1; x = seenV.nextSetBit(x + 1) }
    seenV.clear()
    val edges = new Array[(Int, Int, Double)](ne)
    i = 0
    while (i < ne) { edges(i) = (eu(i), g.adj(es(i)), g.adjProb(es(i))); seenE.clear(es(i)); i += 1 }
    (vs, edges)
  }
}
