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

  import Scope.{aggColumnOf, SemanticError}

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

    // bind expressions to the single pattern's raw columns
    val scope = new Scope(Seq(q.event))
    def leaf(e: Expr): Column = col(scope.column(e)._2)
    val out = Scope.shape(q)
    val keyCols = out.keys.map { case (n, g) => ExprEval.toColumn(g, leaf).as(n) }
    val aggCols = out.aggs.map { case (n, e) => aggColumnOf(e, leaf).as(n) }
    val grouped = windowed.groupBy(col("win") +: keyCols: _*).agg(aggCols.head, aggCols.tail: _*)

    // historical references alias[k] -> left self-join at window win-k
    val hists = q.having.toSeq.flatMap(Ast.collectHists).distinct
    val keyNames = out.keys.map(_._1)
    var joined = grouped
    for ((alias, k) <- hists) {
      val prev = grouped.select(
        (col("win") + k).as("win") +: keyNames.map(col) :+ col(alias).as(s"${alias}__$k"): _*)
      joined = joined.join(prev, Seq("win") ++ keyNames, "left")
    }

    val filtered = q.having.fold(joined)(h => joined.filter(ExprEval.toColumn(h, {
      case HistRef(a, k) => col(s"${a}__$k")
      case l             => col(out.item(l)._1)
    })))
    filtered.select(("win" +: out.returns.map(_._1)).map(col): _*)
  }
}
