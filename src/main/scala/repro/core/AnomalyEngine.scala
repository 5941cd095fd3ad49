package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import Ast._

/** Executes anomaly AIQL queries (§2.2.3): the engine "partitions the events
  * into sliding windows by the timestamp, computes the aggregate results,
  * and enforces the filters".
  *
  * Window `w` covers `[T0 + w·step, T0 + w·step + window)` where `[T0, T1)`
  * is the query's global time window; an event belongs to every window
  * covering its timestamp (overlapping windows when step < window).
  * Aggregates are computed per (window, group); the `having` clause may
  * reference the aggregate of the k-th *previous* window via `alias[k]`
  * (exact offset — if the group has no row at window w−k the reference is
  * NULL and the comparison fails, as in SQL).
  *
  * Output: one row per surviving (window, group), with a leading `win`
  * column (window index) followed by the `return` items.
  */
final class AnomalyEngine private[repro] (loader: BaseLoader) {

  import MultiEventEngine.{aggColumnOf, defaultAlias, keyName, SemanticError}

  def execute(q: AnomalyQuery): DataFrame = {
    if (q.stepMs <= 0 || q.windowMs <= 0)
      throw SemanticError("window and step must be positive")
    val (t0, t1) = Times.window(q.globals).getOrElse(
      throw SemanticError("anomaly query requires a global time window"))

    val base = loader.baseEvents(q.globals).filter(PatternCompiler.compile(q.event))

    // explode each event into all windows covering its timestamp
    val nWin = ((t1 - t0 + q.stepMs - 1) / q.stepMs).toInt
    val whi = least(lit(nWin - 1), floor((col("ts") - t0) / q.stepMs)).cast("long")
    val wlo = greatest(lit(0L), (floor((col("ts") - t0 - q.windowMs) / q.stepMs) + 1).cast("long"))
    val windowed = base.withColumn("win", explode(sequence(wlo, whi)))

    // resolve expressions against the single pattern's raw columns
    val roles = PatternCompiler.roles(q.event)
    def resolveLeaf(e: Expr): Column = e match {
      case VarRef(v) if v == q.event.alias =>
        throw SemanticError(s"bare event alias '$v' is not returnable; use $v.<attr>")
      case VarRef(v) =>
        val (kind, role) = roles.getOrElse(v, throw SemanticError(s"unknown variable '$v'"))
        col(Attrs.entityAttr(kind, role, ""))
      case AttrRef(v, a) if v == q.event.alias => col(Attrs.eventAttr(a))
      case AttrRef(v, a) =>
        val (kind, role) = roles.getOrElse(v, throw SemanticError(s"unknown variable '$v'"))
        col(Attrs.entityAttr(kind, role, a))
      case other => throw SemanticError(s"unresolvable expression $other")
    }

    val keyCols = q.groupBy.map(g => ExprEval.toColumn(g, resolveLeaf).as(keyName(q.returns, g)))
    val aggItems = q.returns.collect {
      case ReturnItem(e, al) if ExprEval.hasAgg(e) =>
        (al.getOrElse(defaultAlias(e)), e)
    }
    if (aggItems.isEmpty) throw SemanticError("anomaly query requires an aggregate in return")
    for (r <- q.returns if !ExprEval.hasAgg(r.expr))
      if (!q.groupBy.contains(r.expr))
        throw SemanticError(s"return item ${r.expr} is neither aggregated nor grouped")

    val aggCols = aggItems.map { case (name, e) => aggColumnOf(e, resolveLeaf).as(name) }
    val grouped = windowed.groupBy(col("win") +: keyCols: _*).agg(aggCols.head, aggCols.tail: _*)

    // historical references alias[k] -> left self-join at window win-k
    val hists = q.having.toSeq.flatMap(Ast.collectHists).distinct
    val keyNames = q.groupBy.map(keyName(q.returns, _))
    var joined = grouped
    for ((alias, k) <- hists) {
      if (!aggItems.exists(_._1 == alias))
        throw SemanticError(s"history reference '$alias[$k]' does not match an aggregate alias")
      val prev = grouped.select(
        (col("win") + k).as("win") +: keyNames.map(col) :+ col(alias).as(s"${alias}__$k"): _*)
      joined = joined.join(prev, Seq("win") ++ keyNames, "left")
    }

    val filtered = q.having match {
      case None => joined
      case Some(h) =>
        val hc = ExprEval.toColumn(h, {
          case VarRef(v) if aggItems.exists(_._1 == v) => col(v)
          case VarRef(v) if keyNames.contains(v)       => col(v)
          case HistRef(a, k)                           => col(s"${a}__$k")
          case VarRef(v)                               => resolveLeaf(VarRef(v))
          case other => throw SemanticError(s"unresolvable having leaf $other")
        })
        joined.filter(hc)
    }

    val outNames = "win" +: q.returns.map { r =>
      if (ExprEval.hasAgg(r.expr)) r.alias.getOrElse(defaultAlias(r.expr))
      else keyName(q.returns, q.groupBy.find(_ == r.expr).get)
    }
    filtered.select(outNames.map(col): _*)
  }
}
