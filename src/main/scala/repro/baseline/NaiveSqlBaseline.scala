package repro.baseline

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.core.Ast._

/** The comparator system of the evaluation: executes the synthesized
  * semantically-equivalent flat SQL through Spark SQL over an
  * *unpartitioned* events table, with joins in written order.
  *
  * This models the execution the paper ascribes to PostgreSQL: one big
  * multi-join SQL statement handed to a general-purpose engine with no
  * domain partition layout and no pruning-power scheduling (Spark's
  * cost-based join reordering is off by default, so the join tree follows
  * the FROM-clause order — the naive translation order).
  */
final class NaiveSqlBaseline(spark: SparkSession, flatEvents: DataFrame) {

  /** Execute any AIQL query via its equivalent SQL; results carry the same
    * column names as the optimized engine so they can be diffed.
    */
  def execute(q: Query): DataFrame = q match {
    case d: DependencyQuery => execute(DependencyCompiler.compile(d))
    case m: MultiEventQuery =>
      flatEvents.createOrReplaceTempView("events")
      spark.sql(SqlSynthesizer.multiEvent(m, SqlSynthesizer.Spark).sql)
    case a: AnomalyQuery =>
      flatEvents.createOrReplaceTempView("events")
      windowsDf(a).createOrReplaceTempView("wins")
      spark.sql(SqlSynthesizer.anomaly(a, SqlSynthesizer.Spark).sql)
  }

  def execute(aiqlText: String): DataFrame = execute(Parser.parse(aiqlText))

  /** The `wins(win, wstart, wend)` helper relation for an anomaly query. */
  def windowsDf(a: AnomalyQuery): DataFrame = {
    import spark.implicits._
    SqlSynthesizer.windowsSpec(a).toDF("win", "wstart", "wend")
  }
}
