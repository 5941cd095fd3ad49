package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import Ast._

/** Facade of the AIQL system (Figure 1): parse an AIQL query, route it to
  * the right engine, and return the matched results as a DataFrame.
  */
final class Aiql(
    spark: SparkSession,
    source: EventSource,
    conf: AiqlConf = AiqlConf(),
) {

  /** The one hot-partition cache both engines read through. */
  private[repro] val loader = new BaseLoader(spark, source, conf)
  private val multi = new MultiEventEngine(loader, conf)
  private val anomaly = new AnomalyEngine(loader)

  /** Parse + execute an AIQL query text. The result of a query over a small
    * store footprint (`AiqlConf.broadcastThreshold`) belongs to the engine's
    * interpreted session, which carries the caller's SQL settings, not to
    * `spark`.
    */
  def query(text: String): DataFrame = execute(Parser.parse(text))

  /** Execute an already-parsed query. */
  def execute(q: Query): DataFrame = q match {
    case m: MultiEventQuery => multi.execute(m)
    case d: DependencyQuery => multi.execute(DependencyCompiler.compile(d))
    case a: AnomalyQuery    => anomaly.execute(a)
  }

  /** Release the hot-partition and relevant-set caches. */
  def close(): Unit = { multi.close(); loader.close() }
}
