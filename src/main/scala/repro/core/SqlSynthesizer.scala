package repro.core

import Ast._
import repro.events.EventSchema

/** Synthesizes the semantically equivalent flat SQL for an AIQL query — the
  * comparator of the paper's evaluation ("the semantically equivalent SQL
  * queries executed in PostgreSQL"): all event patterns become self-joins of
  * the `events` table with every constraint woven into one WHERE clause,
  * left to the default engine schedule.
  *
  * Dialects:
  *  - [[SqlSynthesizer.Spark]]: typed `events` view, executed via
  *    `spark.sql` by [[repro.baseline.NaiveSqlBaseline]];
  *  - [[SqlSynthesizer.DuckDb]]: the [[repro.Oracle]] stores all columns as
  *    VARCHAR, so numeric columns are CAST before comparison.
  *
  * The synthesizer also counts the atomic constraints it emits, feeding the
  * conciseness comparison (T2).
  */
object SqlSynthesizer {

  sealed trait Dialect { def castNumeric: Boolean }
  case object Spark  extends Dialect { val castNumeric = false }
  case object DuckDb extends Dialect { val castNumeric = true }

  /** A synthesized query plus the number of atomic constraints in it. */
  final case class Synth(sql: String, constraints: Int)

  final case class SynthError(msg: String) extends RuntimeException(msg)

  /** Route any parsed query; anomaly SQL additionally references a
    * `wins(win, wstart, wend)` helper table (see [[windowsSpec]]).
    */
  def forQuery(q: Query, dialect: Dialect): Synth = q match {
    case m: MultiEventQuery => multiEvent(m, dialect)
    case d: DependencyQuery => multiEvent(DependencyCompiler.compile(d), dialect)
    case a: AnomalyQuery    => anomaly(a, dialect)
  }

  // ------------------------------------------------------------ multievent

  def multiEvent(q: MultiEventQuery, dialect: Dialect): Synth = {
    val scope = new Scope(q.events)
    val out = Scope.shape(q)
    val preds = Seq.newBuilder[String]

    def qcol(evt: String, c: String): String =
      if (dialect.castNumeric && EventSchema.numericColumns.contains(c))
        s"CAST($evt.$c AS BIGINT)"
      else s"$evt.$c"

    preds ++= patternPreds(q.globals, q.events, qcol)

    // implicit attribute relationships: same variable across events
    val occs = scala.collection.mutable.LinkedHashMap[String, Vector[(String, String, String)]]()
    for (e <- q.events; (v, k, r) <- Ast.entityOccurrences(e))
      occs(v) = occs.getOrElse(v, Vector.empty) :+ ((e.alias, k, r))
    for ((_, os) <- occs if os.size > 1) {
      val (e0, k0, r0) = os.head
      for ((e1, k1, r1) <- os.tail if e1 != e0) {
        preds += s"${qcol(e0, Attrs.joinKey(k0, r0))} = ${qcol(e1, Attrs.joinKey(k1, r1))}"
        if (Attrs.isHostLocal(k0))
          preds += s"${qcol(e0, "agent_id")} = ${qcol(e1, "agent_id")}"
      }
    }

    // temporal relationships
    for (t <- q.temps) {
      val (early, late) = if (t.rel == "before") (t.left, t.right) else (t.right, t.left)
      preds += s"${qcol(early, "ts")} < ${qcol(late, "ts")}"
    }

    def leaf(e: Expr): String = { val (a, c) = scope.column(e); qcol(a, c) }
    val items = out.returns.map { case (n, e) => s"${exprSql(e, leaf)} AS $n" }
    val grouping =
      if (out.aggs.nonEmpty && out.keys.nonEmpty)
        s"\nGROUP BY ${out.keys.map { case (_, g) => exprSql(g, leaf) }.mkString(", ")}"
      else ""
    // standard SQL's HAVING cannot name an output column: each name is
    // replaced by the key or aggregate it names
    val having = out.having.fold("")(h => s"\nHAVING ${exprSql(h, l => exprSql(out.item(l)._2, leaf))}")

    val allPreds = preds.result()
    val sql =
      s"""SELECT ${items.mkString(", ")}
         |FROM ${q.events.map(e => s"events ${e.alias}").mkString(", ")}
         |WHERE ${allPreds.mkString("\n  AND ")}$grouping$having""".stripMargin
    Synth(sql, allPreds.size + q.having.map(countAtoms).getOrElse(0))
  }

  // --------------------------------------------------------------- anomaly

  /** Window helper rows for an anomaly query: (win, wstart, wend). The
    * baseline registers them as view `wins`; the oracle passes them as an
    * input table — window assignment itself is plain SQL range predicates.
    */
  def windowsSpec(q: AnomalyQuery): Seq[(Long, Long, Long)] = {
    val (t0, t1) = Times.window(q.globals).getOrElse(
      throw SynthError("anomaly query requires a global time window"))
    val nWin = ((t1 - t0 + q.stepMs - 1) / q.stepMs).toInt
    (0 until nWin).map(w => (w.toLong, t0 + w * q.stepMs, t0 + w * q.stepMs + q.windowMs))
  }

  def anomaly(q: AnomalyQuery, dialect: Dialect): Synth = {
    val preds = Seq.newBuilder[String]
    def qcol(tbl: String, c: String): String =
      if (dialect.castNumeric &&
          (EventSchema.numericColumns.contains(c) || tbl == "w"))
        s"CAST($tbl.$c AS BIGINT)"
      else s"$tbl.$c"

    preds ++= patternPreds(q.globals, Seq(q.event.copy(alias = "e")), qcol)

    // window containment
    preds += s"${qcol("e", "ts")} >= ${qcol("w", "wstart")}"
    preds += s"${qcol("e", "ts")} < ${qcol("w", "wend")}"

    val scope = new Scope(Seq(q.event))
    def leaf(e: Expr): String = qcol("e", scope.column(e)._2)
    val out = Scope.shape(q)
    val keySqls = out.keys.map { case (n, g) => s"${exprSql(g, leaf)} AS $n" }
    val aggSqls = out.aggs.map { case (n, e) => s"${exprSql(e, leaf)} AS $n" }

    val allPreds = preds.result()
    val aggCte =
      s"""SELECT ${(s"${qcol("w", "win")} AS win" +: keySqls ++: aggSqls).mkString(", ")}
         |  FROM events e, wins w
         |  WHERE ${allPreds.mkString("\n    AND ")}
         |  GROUP BY ${(qcol("w", "win") +: out.keys.map { case (_, g) => exprSql(g, leaf) }).mkString(", ")}""".stripMargin

    val keyNames = out.keys.map(_._1)
    val hists = q.having.toSeq.flatMap(Ast.collectHists).distinct
    var havingConstraints = 0
    val joins = hists.map { case (alias, k) =>
      havingConstraints += 1 + keyNames.size
      val on = (s"a${k}_$alias.win = a0.win - $k" +:
                keyNames.map(kn => s"a${k}_$alias.$kn = a0.$kn")).mkString(" AND ")
      s"LEFT JOIN agg a${k}_$alias ON $on"
    }

    val where = q.having.fold("") { h =>
      havingConstraints += countAtoms(h)
      val output: Expr => String = {
        case HistRef(a, k) => s"a${k}_$a.$a"
        case l             => s"a0.${out.item(l)._1}"
      }
      s"\nWHERE ${exprSql(h, output)}"
    }

    val outer = ("a0.win AS win" +: out.returns.map { case (n, _) => s"a0.$n AS $n" }).mkString(", ")

    val sql =
      s"""WITH agg AS (
         |$aggCte
         |)
         |SELECT $outer
         |FROM agg a0
         |${joins.mkString("\n")}$where""".stripMargin
    Synth(sql, allPreds.size + havingConstraints)
  }

  // --------------------------------------------------------------- shared

  /** Count of atomic comparisons in an expression. */
  def countAtoms(e: Expr): Int = e match {
    case Bin(op, l, r) if Set("&&", "||").contains(op) => countAtoms(l) + countAtoms(r)
    case Bin(_, _, _) => 1
    case Not(x)       => countAtoms(x)
    case _            => 0
  }

  /** The atoms of the global constraints, repeated for every event table
    * as in the naive SQL, then of each pattern: operation, object type,
    * entity filters, and subject = object for a variable that is both. Each
    * event's table is named by its alias; `qcol` renders a column of it.
    */
  private def patternPreds(globals: Seq[Global], events: Seq[EventPat],
                           qcol: (String, String) => String): Seq[String] = {
    val preds = Seq.newBuilder[String]
    val window = Times.window(globals)
    val agents = Times.agents(globals)
    for (e <- events) {
      for ((s, t) <- window) {
        preds += s"${qcol(e.alias, "ts")} >= $s"
        preds += s"${qcol(e.alias, "ts")} < $t"
      }
      for (as <- agents)
        preds += s"${qcol(e.alias, "agent_id")} IN (${as.mkString(", ")})"
    }
    for (e <- events) {
      preds += s"${qcol(e.alias, "op")} = '${esc(e.op)}'"
      preds += s"${qcol(e.alias, "obj_type")} = '${esc(e.obj.kind)}'"
      for (f <- e.subj.filter) preds ++= filterAtoms(e.subj, "subj", f, qcol(e.alias, _))
      for (f <- e.obj.filter)  preds ++= filterAtoms(e.obj, "obj", f, qcol(e.alias, _))
      if (e.subj.name == e.obj.name)
        preds += s"${qcol(e.alias, Attrs.joinKey(e.subj.kind, "subj"))} = " +
                 s"${qcol(e.alias, Attrs.joinKey(e.obj.kind, "obj"))}"
    }
    preds.result()
  }

  /** Entity filter → SQL atoms, each leaf's column rendered by `qcol`. */
  private def filterAtoms(ent: EntityPat, role: String, f: Expr,
                          qcol: String => String): Seq[String] = {
    def leaf(e: Expr): String = qcol(Scope.filterColumn(ent, role)(e))
    // top-level conjunctions become separate atoms (matching WHERE style)
    def split(e: Expr): Seq[String] = e match {
      case Bin("&&", l, r) => split(l) ++ split(r)
      case other           => Seq(exprSql(other, leaf))
    }
    split(f)
  }

  /** Generic expression printer with LIKE translation for `%` patterns. */
  def exprSql(e: Expr, leaf: Expr => String): String = e match {
    case NumLit(t) => t
    case StrLit(s) => s"'${esc(s)}'"
    case Bin("=", l, StrLit(s)) if s.contains("%") => s"${exprSql(l, leaf)} LIKE '${esc(s)}'"
    case Bin("!=", l, StrLit(s)) if s.contains("%") => s"${exprSql(l, leaf)} NOT LIKE '${esc(s)}'"
    case Bin("=", l, r)  => s"${exprSql(l, leaf)} = ${exprSql(r, leaf)}"
    case Bin("!=", l, r) => s"${exprSql(l, leaf)} <> ${exprSql(r, leaf)}"
    case Bin(op, l, r) if Set("&&", "||").contains(op) =>
      val o = if (op == "&&") "AND" else "OR"
      s"(${exprSql(l, leaf)} $o ${exprSql(r, leaf)})"
    case Bin(op, l, r) if Set("+", "-", "*", "/").contains(op) =>
      s"(${exprSql(l, leaf)} $op ${exprSql(r, leaf)})"
    case Bin(op, l, r) => s"${exprSql(l, leaf)} $op ${exprSql(r, leaf)}"
    case Not(x)        => s"NOT (${exprSql(x, leaf)})"
    case Agg("count", VarRef(_)) => "COUNT(*)"
    case Agg(f, arg)   => s"${f.toUpperCase}(${exprSql(arg, leaf)})"
    case other         => leaf(other)
  }

  private def esc(s: String): String = s.replace("'", "''")
}
