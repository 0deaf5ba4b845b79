package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ProbGraphSpec extends AnyFunSuite {

  private val square = ProbGraph(Seq(
    (1L, 2L, 0.5), (2L, 3L, 0.6), (3L, 4L, 0.7), (4L, 1L, 0.8)))

  test("vertex and edge counts") {
    assert(square.n == 4 && square.m == 4)
  }

  test("labels are sorted and dense ids map back") {
    assert(square.labels.toSeq == Seq(1L, 2L, 3L, 4L))
  }

  test("degrees") {
    (0 until 4).foreach(v => assert(square.degree(v) == 2))
    assert(square.maxDegree == 2)
  }

  test("prob lookup both directions, NaN for absent") {
    val u = 0; val v = 1 // labels 1, 2
    assert(square.prob(u, v) == 0.5 && square.prob(v, u) == 0.5)
    assert(square.prob(0, 2).isNaN) // 1-3 not an edge
    assert(square.hasEdge(0, 1) && !square.hasEdge(0, 2))
  }

  test("edges are canonical u < v and probabilities survive") {
    val es = square.edges
    assert(es.length == 4)
    es.foreach { case (u, v, p) => assert(u < v && p > 0 && p <= 1) }
    assert(math.abs(square.avgProb - 0.65) < 1e-12)
  }

  test("duplicate and reversed edges collapse, self-loops dropped") {
    val g = ProbGraph(Seq((1L, 2L, 0.5), (2L, 1L, 0.9), (1L, 1L, 0.3), (1L, 2L, 0.2)))
    assert(g.m == 1 && g.n == 2)
    assert(g.prob(0, 1) == 0.5) // first write wins
  }

  test("probability validation") {
    for (p <- Seq(0.0, 1.5, Double.NaN, Double.PositiveInfinity))
      intercept[IllegalArgumentException](ProbGraph(Seq((1L, 2L, p))))
  }

  test("subgraph keeps labels and the given probabilities") {
    val g  = ProbGraph(Seq((10L, 20L, 0.5), (20L, 30L, 0.6), (30L, 40L, 0.7), (40L, 10L, 0.8), (10L, 30L, 0.9)))
    val h  = g.subgraph(g.edges.toSeq.filter { case (u, v, _) => g.labels(u) != 20L && g.labels(v) != 20L })
    def byLabels(x: ProbGraph) = x.edges.map { case (u, v, p) => (x.labels(u), x.labels(v), p) }.toSet
    assert(h.labels.toSeq == Seq(10L, 30L, 40L))
    assert(byLabels(h) == Set((10L, 30L, 0.9), (10L, 40L, 0.8), (30L, 40L, 0.7)))
    // the probability is the one given, not the source graph's
    val (a, b) = (java.util.Arrays.binarySearch(g.labels, 20L), java.util.Arrays.binarySearch(g.labels, 30L))
    assert(byLabels(g.subgraph(Seq((a, b, 1.0)))) == Set((20L, 30L, 1.0)))
    assert(g.subgraph(Nil).n == 0)
  }

  test("size limits fail loudly: kept entries and packed row slots") {
    ProbGraph.requireEntries(Int.MaxValue / 2)
    val e = intercept[IllegalArgumentException](ProbGraph.requireEntries(Int.MaxValue / 2 + 1L))
    assert(e.getMessage.contains("overflow"))
    assert(ProbGraph.pack(Int.MaxValue, Int.MaxValue) == 0x7fffffff7fffffffL)
    assert(ProbGraph.pack(3, 0) > ProbGraph.pack(2, Int.MaxValue))
    intercept[AssertionError](ProbGraph.pack(-1, 0))
    intercept[AssertionError](ProbGraph.pack(0, -1))
  }

  test("neighbors sorted") {
    val g = ProbGraph(Seq((5L, 1L, 0.5), (5L, 9L, 0.5), (5L, 3L, 0.5)))
    val vid5 = java.util.Arrays.binarySearch(g.labels, 5L)
    assert(g.neighbors(vid5).toSeq == g.neighbors(vid5).toSeq.sorted)
  }

  test("random graph invariants (seeded)") {
    val rnd = new Random(77)
    for (_ <- 1 to 20) {
      val es = (1 to 50).map(_ =>
        (rnd.nextInt(20).toLong, rnd.nextInt(20).toLong, 0.01 + rnd.nextDouble() * 0.99))
        .filter { case (a, b, _) => a != b }
      val g = ProbGraph(es)
      // handshake: sum of degrees = 2m
      assert((0 until g.n).map(g.degree).sum == 2 * g.m)
      // symmetry of prob
      g.edges.foreach { case (u, v, p) =>
        assert(g.prob(u, v) == p && g.prob(v, u) == p)
      }
    }
  }
}
