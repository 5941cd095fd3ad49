package repro.core

import org.apache.spark.sql.DataFrame
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
  * NULL and the comparison fails, as in SQL); [[Scope.project]] renders it.
  *
  * Output: one row per surviving (window, group), with a leading `win`
  * column (window index) followed by the `return` items.
  */
final class AnomalyEngine private[repro] (loader: BaseLoader) {

  def execute(q: AnomalyQuery): DataFrame = {
    val (t0, t1) = Times.window(q.globals).getOrElse(
      throw Scope.SemanticError("anomaly query requires a global time window"))

    val (events, footRows) = loader.baseEventsWithSize(q.globals)
    val base = events.filter(PatternCompiler.compile(q.event))

    // explode each event into all windows covering its timestamp
    val nWin = ((t1 - t0 + q.stepMs - 1) / q.stepMs).toInt
    val whi = least(lit(nWin - 1), floor((col("ts") - t0) / q.stepMs)).cast("long")
    val wlo = greatest(lit(0L), (floor((col("ts") - t0 - q.windowMs) / q.stepMs) + 1).cast("long"))
    val exploded = base.withColumn("win", explode(sequence(wlo, whi)))
    // a small footprint aggregates in one task: no exchange, so one job
    val windowed = if (footRows.exists(loader.small)) exploded.coalesce(1) else exploded

    // the single pattern's leaves bind to raw columns
    val scope = new Scope(Seq(q.event))
    Scope.project(windowed, Scope.shape(q), e => col(scope.column(e)._2), Some("win"))
  }
}
