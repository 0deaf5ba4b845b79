package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GraphGenSpec extends AnyFunSuite {
  import GraphGen._

  test("generation is deterministic in the seed") {
    val spec = Spec(100, 200, Seq(5, 6), UniformDist(), seed = 9)
    assert(generate(spec) == generate(spec))
    val other = generate(spec.copy(seed = 10))
    assert(generate(spec) != other)
  }

  test("planted cliques are present as complete subgraphs") {
    val spec = Spec(50, 0, Seq(6), UniformDist(), seed = 3, overlapFraction = 0.0)
    val g    = graph(spec)
    // with no background and no overlap the first 6 vertices form a clique
    for (a <- 0 until 6; b <- a + 1 until 6)
      assert(g.hasEdge(a, b), s"missing clique edge $a-$b")
  }

  test("all probabilities are in (0,1]") {
    for (name <- paperDatasets) {
      val g = dataset(name, scale = 0.05)
      g.edges.foreach { case (_, _, p) => assert(p > 0 && p <= 1) }
    }
  }

  test("probability distributions have roughly the intended averages") {
    val rnd = new Random(5)
    def avg(d: ProbDist, n: Int = 20000): Double = (1 to n).map(_ => d.sample(rnd)).sum / n
    assert(math.abs(avg(UniformDist()) - 0.5) < 0.02)
    assert(math.abs(avg(NormalDist(0.68, 0.15)) - 0.68) < 0.02)
    assert(avg(ParetoDist(0.05, 2.0)) < 0.2) // concentrated small
    assert(math.abs(avg(SkewedSmallDist(0.13)) - 0.13) < 0.03)
    val ec = avg(ExpCollabDist(0.6))
    assert(ec > 0.2 && ec < 0.4, s"exp-collab avg $ec") // skewed toward 1-exp(-1/4)≈0.22
  }

  test("dataset sizes are ordered like the paper's (by edge count)") {
    val sizes = Seq("krogan", "dblp", "flickr", "pokec", "biomine", "ljournal")
      .map(d => d -> dataset(d, scale = 0.1).m).toMap
    assert(sizes("krogan") < sizes("dblp"))
    assert(sizes("pokec") > sizes("flickr"))
    assert(sizes("ljournal") > sizes("biomine"))
  }

  test("the edge key set doubles and fails loudly where an Int array would wrap") {
    assert(grownKeyCapacity(32) == 64)
    assert(grownKeyCapacity(1 << 29) == (1 << 30))
    val e = intercept[IllegalArgumentException](grownKeyCapacity(1 << 30))
    assert(e.getMessage.contains("overflow"))
  }

  test("the seed-0 stand-ins have the graph digests the benchmark records under setup:") {
    // SHA-256 over the label-sorted (a, b, bits of p) longs, first 8 bytes in hex
    def digest(g: ProbGraph): String = {
      val md  = java.security.MessageDigest.getInstance("SHA-256")
      val buf = java.nio.ByteBuffer.allocate(24)
      g.edges.map { case (u, v, p) => (g.labels(u), g.labels(v), p) }.sortBy(e => (e._1, e._2)).foreach { case (a, b, p) =>
        buf.clear(); buf.putLong(a).putLong(b).putLong(java.lang.Double.doubleToLongBits(p)); md.update(buf.array())
      }
      md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
    }
    val src = scala.io.Source.fromFile("nucbench/expected-seed0.txt", "UTF-8")
    val expected = try src.getLines().collect { case s"$_ setup:$ds $hex" => ds -> hex }.toMap finally src.close()
    assert(expected.keySet == Set("krogan", "dblp", "flickr", "pokec", "biomine", "ljournal", "enwiki"))
    for ((ds, hex) <- expected) assert(digest(dataset(ds)) == hex, ds)
  }

  test("unknown dataset name rejected") {
    intercept[IllegalArgumentException](dataset("nope"))
  }

  test("scaled datasets shrink") {
    val full  = dataset("krogan", 0.5)
    val small = dataset("krogan", 0.1)
    assert(small.m < full.m && small.n <= full.n)
  }

  test("pokec variants share topology but differ in probabilities") {
    val u = dataset("pokec", 0.05)
    val n = dataset("pokec_Normal", 0.05)
    assert(u.m == n.m && u.n == n.n)
    val uEdges = u.edges.map { case (a, b, _) => (a, b) }.toSeq
    val nEdges = n.edges.map { case (a, b, _) => (a, b) }.toSeq
    assert(uEdges == nEdges)
    assert(u.edges.map(_._3).toSeq != n.edges.map(_._3).toSeq)
  }
}
