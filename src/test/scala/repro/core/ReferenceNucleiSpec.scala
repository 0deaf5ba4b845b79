package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.cliques.FourCliques
import repro.core.LocalNucleus.{Decomposition, Nucleus}
import repro.graph.{GraphGen, ProbGraph}
import scala.util.Random

/** The one-sweep nucleus hierarchy against the per-level `ReferenceNuclei`:
  * at every level the same nuclei in the same order, each with identical
  * triangle, vertex and edge arrays (edge order included), and `allNuclei`
  * equal to the reference's levels 1..kMax in turn.
  */
class ReferenceNucleiSpec extends AnyFunSuite {

  private def assertSame(what: String, got: Seq[Nucleus], want: Seq[Nucleus]): Unit = {
    assert(got.size == want.size, s"$what: ${got.size} nuclei, reference ${want.size}")
    got.zip(want).zipWithIndex.foreach { case ((a, b), i) =>
      assert(a.k == b.k, s"$what nucleus $i: k")
      assert(a.triangleIds.sameElements(b.triangleIds), s"$what nucleus $i: triangles")
      assert(a.vertices.sameElements(b.vertices), s"$what nucleus $i: vertices")
      assert(a.edges.sameElements(b.edges), s"$what nucleus $i: edges")
    }
  }

  /** Compares every level −1..kMax + 1 and `allNuclei`; returns the number of nuclei checked. */
  private def assertAllLevels(what: String, d: Decomposition): Int = {
    val levels = (-1 to d.kMax + 1).map(k => k -> ReferenceNuclei.nucleiAt(d, k))
    levels.foreach { case (k, want) => assertSame(s"$what k=$k", d.nucleiAt(k), want) }
    assertSame(s"$what allNuclei", d.allNuclei, levels.filter(l => l._1 >= 1 && l._1 <= d.kMax).flatMap(_._2))
    levels.map(_._2.size).sum
  }

  test("nucleiAt equals the reference at every k in −1..kMax + 1 on the 9 stand-ins at θ ∈ {0.1, 0.2, 0.3}") {
    val standIns = GraphGen.paperDatasets ++ Seq("pokec_Normal", "pokec_Pareto", "enwiki")
    for (ds <- standIns) {
      val g  = GraphGen.dataset(ds)
      val cs = FourCliques.build(g)
      for (theta <- Seq(0.1, 0.2, 0.3)) {
        val d = LocalNucleus.decompose(g, cs, theta, LocalNucleus.DP)
        assert(assertAllLevels(s"$ds θ=$theta", d) > 0, s"$ds θ=$theta has no nuclei")
      }
    }
  }

  test("nucleiAt equals the reference on 20 random graphs with ν = −1 triangles inside 4-cliques") {
    val rnd = new Random(909)
    var levelMinusOne = 0
    for (trial <- 1 to 20) {
      val n  = 10 + rnd.nextInt(6)
      val es = for { a <- 0 until n; b <- a + 1 until n if rnd.nextDouble() < 0.6 }
        yield (a.toLong, b.toLong, 0.2 + 0.8 * rnd.nextDouble())
      val d = LocalNucleus.decompose(ProbGraph(es), 0.1 + 0.2 * rnd.nextDouble(), LocalNucleus.DP)
      assertAllLevels(s"trial $trial", d)
      levelMinusOne += d.cliqueLevels.count(_ == -1)
    }
    assert(levelMinusOne > 0, "no 4-clique had a ν = −1 member")
  }

  test("cliqueLevels is the least ν of each clique's members") {
    val d = LocalNucleus.decompose(GraphGen.dataset("krogan"), 0.2, LocalNucleus.DP)
    val cs = d.structure
    assert(cs.nCliques > 0)
    d.cliqueLevels.zipWithIndex.foreach { case (l, c) => assert(l == cs.members(c).map(d.nu).min, s"clique $c") }
  }
}
