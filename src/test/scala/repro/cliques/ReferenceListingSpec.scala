package repro.cliques

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, ProbGraph}
import scala.util.Random

/** The forward, mark-based listings against the merge-based
  * `ReferenceListing`: `enumerate`'s u, v, w, the raw bits of prob and the
  * slots (against `g.slot` lookups), and
  * `build`'s cliqueTris, the raw bits of cliquePrE, and triCliques, all array
  * for array.
  */
class ReferenceListingSpec extends AnyFunSuite {

  private def bits(xs: Array[Double]): Array[Long] = xs.map(java.lang.Double.doubleToRawLongBits)

  private def assertSameListing(what: String, g: ProbGraph): Unit = {
    val (got, want) = (Triangles.enumerate(g), ReferenceListing.enumerate(g))
    assert(got.u.sameElements(want.u), s"$what: u")
    assert(got.v.sameElements(want.v), s"$what: v")
    assert(got.w.sameElements(want.w), s"$what: w")
    assert(bits(got.prob).sameElements(bits(want.prob)), s"$what: prob")
    assert(got.slots.sameElements(want.slots), s"$what: slots")
    val (cs, ref) = (FourCliques.build(g), ReferenceListing.build(g))
    assert(cs.cliqueTris.sameElements(ref.cliqueTris), s"$what: cliqueTris")
    assert(bits(cs.cliquePrE).sameElements(bits(ref.cliquePrE)), s"$what: cliquePrE")
    assert(cs.triCliques.length == ref.triCliques.length, s"$what: triCliques")
    cs.triCliques.indices.foreach(t => assert(cs.triCliques(t).sameElements(ref.triCliques(t)), s"$what: triCliques($t)"))
  }

  test("enumerate and build equal the reference on the 9 stand-ins") {
    for (ds <- GraphGen.paperDatasets ++ Seq("pokec_Normal", "pokec_Pareto", "enwiki"))
      assertSameListing(ds, GraphGen.dataset(ds))
  }

  test("enumerate and build equal the reference on 30 random graphs with hubs, sinks and a dense block") {
    val rnd = new Random(1010)
    var sinksInTriangles = 0 // vertices below the top one, with no neighbour above them, in some triangle
    for (trial <- 1 to 30) {
      val n     = 20 + rnd.nextInt(40)
      val hubs  = Set.fill(3)(rnd.nextInt(n))
      val sinks = Set.fill(4)(rnd.nextInt(n)) -- hubs // no edge to a higher label
      val lone  = Set.fill(3)(rnd.nextInt(n)) -- hubs // no edge at all: only a self-loop
      val from  = rnd.nextInt(n - 10)
      val block = (from until from + 6 + rnd.nextInt(5)).toSet -- lone
      val edges = for {
        a <- 0 until n; b <- a + 1 until n
        if !lone(a) && !lone(b) && !sinks(a)
        if rnd.nextDouble() < (if (block(a) && block(b)) 0.95 else if (hubs(a) || hubs(b)) 0.8 else 0.15)
      } yield (a.toLong, b.toLong, 0.05 + 0.95 * rnd.nextDouble())
      // ProbGraph keeps no vertex without an edge, so the lone labels leave gaps in the dense ids
      val g = ProbGraph(edges ++ lone.toSeq.map(a => (a.toLong, a.toLong, 0.5)))
      assert(lone.forall(a => java.util.Arrays.binarySearch(g.labels, a.toLong) < 0))
      val tris = Triangles.enumerate(g)
      sinksInTriangles += (0 until g.n - 1).count { x =>
        g.neighbors(x).forall(_ < x) && tris.w.contains(x)
      }
      assertSameListing(s"trial $trial", g)
    }
    assert(sinksInTriangles > 0, "no vertex without a neighbour above it closed a triangle")
  }

  test("the flat listings grow by doubling and fail loudly when full") {
    assert(Triangles.grownCapacity(64, 1000, "x") == 128)
    assert(Triangles.grownCapacity(600, 1000, "x") == 1000)
    assert(Triangles.grownCapacity(Int.MaxValue / 2 + 1, Int.MaxValue, "x") == Int.MaxValue)
    val e = intercept[IllegalArgumentException](Triangles.grownCapacity(1000, 1000, "triangles"))
    assert(e.getMessage.contains("triangles"))
  }

  test("the 4-clique count fails loudly past MaxCliques, before the arrays are allocated") {
    FourCliques.requireCliques(FourCliques.MaxCliques.toLong)
    for (count <- Seq(FourCliques.MaxCliques.toLong + 1, Int.MaxValue.toLong, 1L << 40)) {
      val e = intercept[IllegalArgumentException](FourCliques.requireCliques(count))
      assert(e.getMessage.contains("4-cliques") && e.getMessage.contains(count.toString))
    }
  }
}
