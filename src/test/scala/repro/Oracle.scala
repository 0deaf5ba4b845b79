package repro

import java.sql.DriverManager

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(got, sql, tables)`` runs ``sql`` on DuckDB (via JDBC,
  * in-process) over ``tables`` and asserts the sorted rows match ``got``.
  * This catches wrong results from a kernel — "it ran" is not "it is
  * correct".
  *
  * Tables are plain [[Rows]]: column names plus one `Seq` of values per
  * row. They load as VARCHAR columns, so the SQL casts what it reads. Alias
  * every output column identically on both sides and keep values scalar.
  */
object Oracle {

  /** A table: column names and rows of values in column order. */
  final case class Rows(columns: Seq[String], rows: Seq[Seq[Any]])

  private def canon(rows: Seq[Seq[Any]], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  /** Run ``sql`` on DuckDB over ``tables`` and return its result rows. */
  def query(sql: String, tables: (String, Rows)*): Rows = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, t) <- tables) {
        val cols = t.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        t.rows.foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val cols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val rows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => (1 to cols.size).map(r.getObject))
        .toSeq
      Rows(cols, rows)
    } finally conn.close()
  }

  def assertEquivalent(got: Rows, sql: String, tables: (String, Rows)*): Unit = {
    val duck = query(sql, tables: _*)
    require(
      duck.columns.map(_.toLowerCase).toSet == got.columns.map(_.toLowerCase).toSet,
      s"column mismatch: got=${got.columns.sorted} duckdb=${duck.columns.sorted} — alias every output column"
    )
    val g = canon(got.rows, got.columns)
    val e = canon(duck.rows, duck.columns)
    require(g == e,
      s"result mismatch (${g.size} vs ${e.size} rows):\n" +
      s"  first got-only:  ${g.diff(e).take(3)}\n" +
      s"  first duck-only: ${e.diff(g).take(3)}"
    )
  }
}
