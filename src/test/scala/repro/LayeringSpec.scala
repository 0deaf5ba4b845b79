package repro

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import scala.util.Using

/** The package graph runs one way: graph, cliques and prob name nothing
  * of the layers above them (core, baseline, exp), by import or by
  * qualified name. Read from the program's sources under the test JVM's
  * working directory, the project root.
  */
class LayeringSpec extends AnyFunSuite {

  private val lower = Seq("graph", "cliques", "prob")
  // `repro.core`, `_root_.repro.exp.X`, and `repro.{graph, core => c}`
  private val upper = """\brepro\s*\.\s*(?:(?:core|baseline|exp)\b|\{[^}]*\b(?:core|baseline|exp)\b)""".r

  test("graph, cliques and prob name nothing of core, baseline or exp") {
    val root = Paths.get(System.getProperty("user.dir"), "src", "main", "scala", "repro")
    for (pkg <- lower) {
      val dir = root.resolve(pkg)
      assert(Files.isDirectory(dir), s"no source directory $dir")
      val sources = Using.resource(Files.walk(dir))(_.iterator.asScala.filter(_.toString.endsWith(".scala")).toList)
      assert(sources.nonEmpty, s"no .scala file under $dir")
      for (f <- sources; (line, at) <- Files.readAllLines(f).asScala.zipWithIndex)
        upper.findFirstIn(line).foreach(hit => fail(s"${root.relativize(f)}:${at + 1} names `$hit`"))
    }
  }
}
