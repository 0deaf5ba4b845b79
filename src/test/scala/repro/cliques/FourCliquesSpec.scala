package repro.cliques

import org.scalatest.funsuite.AnyFunSuite
import repro.{GraphSql, Oracle}
import repro.Oracle.Rows
import repro.cliques.Incidence._
import repro.graph.{GraphGen, ProbGraph}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** 4-clique enumeration and the (triangle, Pr(E_i)) incidence structure:
  * known-count cases, internal identities, dense ids past 2^21, and DuckDB-oracle
  * checks of the in-memory structure.
  */
class FourCliquesSpec extends AnyFunSuite {

  private def completeGraph(n: Int, p: Double = 0.9): ProbGraph =
    ProbGraph(for { a <- 0 until n; b <- a + 1 until n } yield (a.toLong, b.toLong, p))

  private def choose(n: Int, k: Int): Long =
    ((1 to k).map(i => (n - i + 1).toDouble / i).product).round

  test("K_n has C(n,4) 4-cliques and each triangle support n-3") {
    for (n <- 4 to 8) {
      val cs = FourCliques.build(completeGraph(n))
      assert(cs.nCliques == choose(n, 4), s"n=$n")
      assert(cs.nTriangles == choose(n, 3))
      (0 until cs.nTriangles).foreach(t => assert(cs.support(t) == n - 3))
    }
  }

  test("K4 minus an edge has no 4-clique but two triangles") {
    val g = ProbGraph(Seq(
      (0L, 1L, 0.5), (0L, 2L, 0.5), (0L, 3L, 0.5), (1L, 2L, 0.5), (1L, 3L, 0.5)))
    val cs = FourCliques.build(g)
    assert(cs.nCliques == 0 && cs.nTriangles == 2)
  }

  test("Pr(E_i) identity: prE(c,t) · Pr(t) = clique existence probability") {
    val g  = GraphGen.graph(GraphGen.Spec(30, 60, Seq(6, 5), GraphGen.UniformDist(), seed = 33))
    val cs = FourCliques.build(g)
    for (c <- 0 until cs.nCliques) {
      val members = cs.members(c)
      // all four member triangles must give the same 6-edge product
      val products = members.map(t => cs.prE(c, t) * cs.tris.prob(t))
      products.foreach(p => assert(math.abs(p - products.head) < 1e-12))
    }
  }

  test("triCliques is the inverse of cliqueTris") {
    val g  = GraphGen.dataset("krogan", scale = 0.15)
    val cs = FourCliques.build(g)
    for (t <- 0 until cs.nTriangles; c <- cs.triCliques(t))
      assert(cs.members(c).contains(t))
    var total = 0
    (0 until cs.nTriangles).foreach(t => total += cs.triCliques(t).length)
    assert(total == 4 * cs.nCliques)
  }

  private def cliqueCount(cs: FourCliques.CliqueStructure): Rows =
    Rows(Seq("cnt"), Seq(Seq(cs.nCliques.toLong)))

  test("4-clique count matches the DuckDB oracle (krogan stand-in)") {
    val g = GraphGen.dataset("krogan", scale = 0.15)
    Oracle.assertEquivalent(cliqueCount(FourCliques.build(g)), GraphSql.cliqueCount,
      "e" -> GraphSql.edges(g))
  }

  test("SQL incidence matches the in-memory counts and per-triangle support") {
    val g  = GraphGen.graph(GraphGen.Spec(40, 150, Seq(7, 6, 5), GraphGen.UniformDist(), seed = 55))
    val cs = FourCliques.build(g)
    val e  = GraphSql.edges(g)
    Oracle.assertEquivalent(cliqueCount(cs), GraphSql.cliqueCount, "e" -> e)
    // incidence support per triangle; triangles in no 4-clique have no rows
    val support = Rows(Seq("x", "y", "z", "s"), (0 until cs.nTriangles).filter(cs.support(_) > 0).map { t =>
      val (x, y, z) = GraphSql.triangleLabels(g, cs.tris, t)
      Seq(x, y, z, cs.support(t).toLong)
    })
    Oracle.assertEquivalent(support,
      s"SELECT x, y, z, COUNT(*) AS s FROM (${GraphSql.incidence}) GROUP BY x, y, z", "e" -> e)
  }

  test("incidence prE values match in-memory structure") {
    val g  = GraphGen.graph(GraphGen.Spec(25, 60, Seq(6, 5), GraphGen.UniformDist(), seed = 66))
    val cs = FourCliques.build(g)
    val inc = Oracle.query(GraphSql.incidence, "e" -> GraphSql.edges(g)).rows
      .groupBy { case Seq(x: Long, y: Long, z: Long, _) => (x, y, z) }
      .view.mapValues(_.map { case Seq(_, _, _, pre: Double) => pre }.sorted).toMap
    assert(inc.size == (0 until cs.nTriangles).count(cs.support(_) > 0))
    for (t <- 0 until cs.nTriangles if cs.support(t) > 0) {
      val key  = GraphSql.triangleLabels(g, cs.tris, t)
      val mine = cs.triCliques(t).map(c => cs.prE(c, t)).sorted.toSeq
      val sql  = inc(key)
      assert(mine.size == sql.size)
      mine.zip(sql).foreach { case (a, b) => assert(math.abs(a - b) < 1e-12) }
    }
  }

  test("build finds a K5 whose dense vertex ids are at least 2^21") {
    // a perfect matching on 2^21 vertices (no triangles), then a K5 on
    // labels that sort last, so its vertices get dense ids 2^21 .. 2^21 + 4
    val base     = 1L << 21
    val matching = (0L until base / 2).map(i => (2 * i, 2 * i + 1, 0.5))
    val k5       = for { a <- 0 until 5; b <- a + 1 until 5 } yield (base + a, base + b, 0.5 + 0.04 * (a + 2 * b))
    val g  = ProbGraph(matching ++ k5)
    assert(g.n == base + 5)
    val cs = FourCliques.build(g)
    assert(cs.nCliques == 5 && cs.nTriangles == 10)
    (0 until cs.nTriangles).foreach(t => assert(cs.support(t) == 2))
    for (c <- 0 until cs.nCliques) {
      val vs = cs.members(c).flatMap(m => Seq(cs.tris.u(m), cs.tris.v(m), cs.tris.w(m))).distinct.sorted
      assert(vs.length == 4 && vs.forall(_ >= base))
      val clique = (for { i <- 0 until 4; j <- i + 1 until 4 } yield g.prob(vs(i), vs(j))).product
      cs.members(c).foreach(m => assert(math.abs(cs.prE(c, m) * cs.tris.prob(m) - clique) < 1e-12))
    }
  }

  test("build lists the brute-force 4-cliques in order, with the same members and Pr(E_i), on random graphs with hubs") {
    val rnd = new Random(78)
    var wBothSides = 0 // cliques whose third vertex w has neighbours below and above it outside the clique
    for (trial <- 1 to 20) {
      val n    = 14 + rnd.nextInt(10)
      val hubs = Set.fill(3)(rnd.nextInt(n))
      val g = ProbGraph(for {
        a <- 0 until n; b <- a + 1 until n
        if rnd.nextDouble() < (if (hubs(a) || hubs(b)) 0.9 else 0.35)
      } yield (a.toLong, b.toLong, 0.05 + 0.95 * rnd.nextDouble()))
      val cs  = FourCliques.build(g)
      val tri = (0 until cs.nTriangles).map(t => (cs.tris.u(t), cs.tris.v(t), cs.tris.w(t)) -> t).toMap
      def p(a: Int, b: Int): Double = g.prob(a, b)
      val ct = ArrayBuffer.empty[Int]; val ce = ArrayBuffer.empty[Double]
      // lexicographic (u, v, w, x): the order build finds them in, from the least triangle
      for {
        u <- 0 until g.n; v <- u + 1 until g.n if g.hasEdge(u, v)
        w <- v + 1 until g.n if g.hasEdge(u, w) && g.hasEdge(v, w)
        x <- w + 1 until g.n if g.hasEdge(u, x) && g.hasEdge(v, x) && g.hasEdge(w, x)
      } {
        ct ++= Seq(tri((u, v, w)), tri((u, v, x)), tri((u, w, x)), tri((v, w, x)))
        ce ++= Seq(p(u, x) * p(v, x) * p(w, x), p(u, w) * p(v, w) * p(w, x),
                   p(u, v) * p(v, w) * p(v, x), p(u, v) * p(u, w) * p(u, x))
        val nw = g.neighbors(w).filterNot(Set(u, v, x))
        if (nw.exists(_ < w) && nw.exists(_ > w)) wBothSides += 1
      }
      assert(cs.cliqueTris.sameElements(ct), s"trial $trial: members")
      assert(cs.cliquePrE.sameElements(ce), s"trial $trial: Pr(E_i)")
      (0 until cs.nTriangles).foreach { t =>
        assert(cs.triCliques(t).sameElements((0 until cs.nCliques).filter(cs.members(_).contains(t))), s"trial $trial: triangle $t")
      }
    }
    assert(wBothSides > 0, "no clique's w had neighbours on both sides")
  }

  test("build allocates its exact arrays and the triangle listing, and nothing that grows") {
    import repro.Allocation.{array, measure}
    for (ds <- Seq("krogan", "biomine")) {
      val g = GraphGen.dataset(ds)
      FourCliques.build(g) // class loading and first-use set-up
      val (tris, listing) = measure(Triangles.enumerate(g))
      val (cs, bytes)     = measure(FourCliques.build(g))
      val (t, c4) = (tris.size.toLong, 4L * cs.nCliques)
      val own =
        4 * array(4, g.n) + array(4, g.adj.length + 1) + array(4, t) + // upper starts, slot and block marks; Index; triDeg
          array(4, c4) + array(8, c4) +                               // cliqueTris, cliquePrE
          array(8, t) + cs.triCliques.map(a => array(4, a.length)).sum
      val bound = listing + own + 64 * 1024
      assert(bytes <= bound, s"$ds: build allocated $bytes bytes; the listing and its arrays take at most $bound")
      assert(bytes >= listing + array(4, c4) - 1024, s"$ds: the measured build is too small to be the build")
    }
  }

  test("planted 6-clique yields expected counts in sparse background") {
    val g  = GraphGen.graph(GraphGen.Spec(100, 0, Seq(6), GraphGen.UniformDist(), seed = 1, overlapFraction = 0))
    val cs = FourCliques.build(g)
    assert(cs.nCliques == choose(6, 4))
    assert(cs.nTriangles == choose(6, 3))
  }
}
