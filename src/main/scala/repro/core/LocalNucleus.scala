package repro.core

import repro.cliques.FourCliques
import repro.cliques.FourCliques.CliqueStructure
import repro.graph.ProbGraph
import repro.prob.{Approximations, PoissonBinomial}
import scala.collection.mutable

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

    /** All ℓ-(k,θ)-nuclei for one k (k ≥ 0). */
    def nucleiAt(k: Int): Seq[Nucleus] = buildNuclei(this, k)

    /** All nuclei for all k in 1..kMax. */
    def allNuclei: Seq[Nucleus] = (1 to kMax).flatMap(nucleiAt)

    /** The graph spanned by the triangles `triIds` (the edges of [[span]]),
      * with `graph`'s labels: an ℓ-nucleus's graph, or a g candidate.
      */
    def subgraph(triIds: Array[Int]): ProbGraph = graph.subgraph(span(graph, structure, triIds)._2.toIndexedSeq)
  }

  def scorer(mode: Mode): ProbPeeling.Scorer = mode match {
    case DP => PoissonBinomial.kappaFast
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

  /** Materialise the ℓ-(k,θ)-nuclei at level k: union-find over triangles
    * joined by "k-alive" 4-cliques (all four member triangles have ν ≥ k) —
    * this realises both the cliqueness precondition (nuclei are unions of
    * 4-cliques) and s-connectedness.
    */
  private def buildNuclei(d: Decomposition, k: Int): Seq[Nucleus] = {
    val cs = d.structure
    val nT = cs.nTriangles
    val kAlive  = cs.cliquesWhere(d.nu(_) >= k)
    val uf      = new UnionFind(nT)
    // only triangles covered by a k-alive clique (cliqueness precondition)
    val covered = new Array[Boolean](nT)
    var i = 0
    while (i < cs.cliqueTris.length) {
      if (kAlive(i / 4)) { uf.union(cs.cliqueTris(i - i % 4), cs.cliqueTris(i)); covered(cs.cliqueTris(i)) = true }
      i += 1
    }
    uf.components(covered(_)).map { triIds =>
      val (vs, es) = span(d.graph, cs, triIds)
      Nucleus(k, triIds, vs, es)
    }
  }

  /** The vertices (ascending) and edges (first seen first, with their
    * probabilities) of a set of triangles of `g`.
    */
  private[core] def span(g: ProbGraph, cs: CliqueStructure, triIds: Array[Int]): (Array[Int], Array[(Int, Int, Double)]) = {
    val vs = mutable.SortedSet.empty[Int]
    val es = mutable.LinkedHashSet.empty[(Int, Int)]
    triIds.foreach { tid =>
      val (u, v, w) = (cs.tris.u(tid), cs.tris.v(tid), cs.tris.w(tid))
      vs += u; vs += v; vs += w
      es += ((u, v)); es += ((u, w)); es += ((v, w))
    }
    (vs.toArray, es.toArray.map { case (u, v) => (u, v, g.prob(u, v)) })
  }
}
